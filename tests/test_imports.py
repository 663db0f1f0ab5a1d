"""The import surface, each check in a fresh interpreter: the command line
loads neither dataclasses, inspect nor typing, nor the slicer or session
modules until a command needs them, and the package resolves its public
names on first use."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import tddslicer
from tddslicer import cli
from tddslicer.corpus import corpus_path

ENV = {**os.environ, "PYTHONPATH": str(Path(tddslicer.__file__).parents[1])}

MAX2_TRIPLE = ["--pre", "a > b", "--post", "a > b && max == a", "--domain", "a in -8..8, b in -8..8",
               "--format", "machine"]
CHECK_ARGS = ["check", str(corpus_path("max2.prog")), *MAX2_TRIPLE]
SLICE_ARGS = ["slice", str(corpus_path("max2.prog")), *MAX2_TRIPLE]
REPLAY_ARGS = ["replay", str(corpus_path("div.session")), "--format", "machine"]


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True,
                          timeout=60)


def _loaded_after(statement: str) -> list[str]:
    """The package's modules and dataclasses, inspect and typing, where
    loaded after statement; without site, whose .pth files may load any."""
    code = (f"{statement}\nimport json, sys\n"
            "print(json.dumps(sorted(name for name in sys.modules if name.startswith('tddslicer')"
            " or name in ('dataclasses', 'inspect', 'typing'))))")
    done = _python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_loads_only_what_check_runs():
    loaded = _loaded_after("import tddslicer.cli")
    assert not {"dataclasses", "inspect", "typing", "tddslicer.slicer", "tddslicer.session"} & set(loaded)
    assert {"tddslicer.verifier", "tddslicer.contracts", "tddslicer.predicates"} <= set(loaded)


def test_package_import_loads_no_submodule():
    assert _loaded_after("import tddslicer") == ["tddslicer"]
    assert "tddslicer.slicer" not in _loaded_after("import tddslicer\ntddslicer.check")


def test_a_public_name_loads_only_its_own_module():
    """tddslicer.lang re-exports nothing, so the parser comes without the
    interpreter or the printer."""
    loaded = _loaded_after("import tddslicer\ntddslicer.parse_program")
    assert "tddslicer.lang.parser" in loaded
    assert not {"tddslicer.lang.interp", "tddslicer.lang.printer"} & set(loaded)


def test_cli_has_no_module_getattr():
    assert "__getattr__" not in vars(cli)


def test_slice_and_replay_load_their_modules_when_they_run():
    """Through cli.main in one process: check loads neither the slicer nor
    the session module, slice then loads the slicer only, and replay the
    session module."""
    code = f"""if True:
        import contextlib, io, json, sys
        from tddslicer.cli import main

        def loaded():
            return [name for name in ("tddslicer.slicer", "tddslicer.session") if name in sys.modules]

        steps = []
        for argv in ({CHECK_ARGS!r}, {SLICE_ARGS!r}, {REPLAY_ARGS!r}):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            steps.append([argv[0], code, loaded()])
        print(json.dumps(steps))
    """
    done = _python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        ["check", 0, []],
        ["slice", 0, ["tddslicer.slicer"]],
        ["replay", 0, ["tddslicer.slicer", "tddslicer.session"]],
    ]


def test_every_public_name_resolves_lists_and_star_imports():
    code = """if True:
        import json
        import tddslicer
        names = tddslicer.__all__
        listed = dir(tddslicer)
        resolved = [name for name in names if hasattr(tddslicer, name)]
        star = {}
        exec("from tddslicer import *", star)
        print(json.dumps({
            "names": names,
            "resolved": resolved,
            "listed": [name for name in names if name in listed],
            "star": [name for name in names if name in star],
            "same": all(star[name] is getattr(tddslicer, name) for name in names),
        }))
    """
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    names = got["names"]
    assert len(names) == 48 and names == sorted(set(names))
    assert got["resolved"] == got["listed"] == got["star"] == names
    assert got["same"]


def test_public_names_come_from_their_modules():
    assert set(tddslicer._SOURCE) == set(tddslicer.__all__)
    assert tddslicer.slice.__module__ == "tddslicer.slicer"
    assert tddslicer.ExhaustiveCapError.__module__ == "tddslicer.errors"
    assert tddslicer.ParseError is tddslicer.errors.ParseError


def test_unknown_attributes_raise_attribute_error():
    code = """if True:
        import tddslicer, tddslicer.cli
        for module, name in ((tddslicer, "union_all"), (tddslicer, "nothing"),
                             (tddslicer.cli, "nothing")):
            try:
                getattr(module, name)
            except AttributeError as err:
                print(err)
            else:
                print("resolved", name)
    """
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "module 'tddslicer' has no attribute 'union_all'",
        "module 'tddslicer' has no attribute 'nothing'",
        "module 'tddslicer.cli' has no attribute 'nothing'",
    ]


def test_slice_and_replay_run_in_a_fresh_process():
    done = _python("-m", "tddslicer.cli", *SLICE_ARGS)
    assert (done.returncode, done.stderr) == (0, "")
    sliced = json.loads(done.stdout)
    assert (sliced["minimal"], sliced["verification"]["verdict"]) == (True, "verified")
    assert [unit["anchor"] for unit in sliced["retained"]] == [1, 2]
    done = _python("-m", "tddslicer.cli", *REPLAY_ARGS)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert report["ok"] and len(report["cycles"]) == 9
