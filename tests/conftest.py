from __future__ import annotations

import pytest

from tddslicer import Contract, Domain, load_session, parse_predicate, parse_program, verifier
from tddslicer.corpus import corpus_path


@pytest.fixture(scope="session")
def div_oracle():
    return parse_program(corpus_path("div_oracle.prog").read_text())


@pytest.fixture(scope="session")
def max2():
    return parse_program(corpus_path("max2.prog").read_text())


@pytest.fixture(scope="session")
def max2_slice():
    return parse_program(corpus_path("max2_slice.prog").read_text())


@pytest.fixture(scope="session")
def div_session():
    return load_session(corpus_path("div.session"))


@pytest.fixture(scope="session")
def dom_ab8():
    return Domain.parse("a in -8..8, b in -8..8")


@pytest.fixture(scope="session")
def dom_div():
    return Domain.parse("x in 0..16, y in 1..9")


@pytest.fixture(scope="session")
def max_contract_gt():
    return Contract(parse_predicate("a > b"), parse_predicate("a > b && max == a"))


@pytest.fixture(scope="session")
def max_contract_le():
    return Contract(parse_predicate("a <= b"), parse_predicate("a <= b && max == b"))


@pytest.fixture
def verifier_runs(monkeypatch):
    """The program of every run the verifier makes, in order: each call of
    a function made by runner (the judging loop) and each run of
    check_point."""
    calls = []
    real_runner, real_run = verifier.runner, verifier.run

    def counting_runner(program, *args, **kwargs):
        execute = real_runner(program, *args, **kwargs)

        def counted(inputs):
            calls.append(program)
            return execute(inputs)

        return counted

    def counting_run(program, *args, **kwargs):
        calls.append(program)
        return real_run(program, *args, **kwargs)

    monkeypatch.setattr(verifier, "runner", counting_runner)
    monkeypatch.setattr(verifier, "run", counting_run)
    return calls
