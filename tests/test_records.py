"""Records: the value classes built on lang.ast.Record keep the semantics
they had as frozen dataclasses: construction by position or keyword with
defaults, repr, equality within one class, hashing over the field tuple
(a TypeError where a field holds a dict or a list, as in CycleRecord and
Report), immutability and DeletionUnit's order."""

from __future__ import annotations

import importlib

import pytest

from tddslicer import parse_predicate
from tddslicer.contracts import Classification, Contract, InstanceCheck, SubsumptionCheck, TestCase
from tddslicer.lang import ast, parse_program, run
from tddslicer.lang.interp import RunResult, TrajectoryEntry
from tddslicer.predicates import Domain, ImplicationResult
from tddslicer.session import Cycle, CycleRecord, RedCheck, Report, Session
from tddslicer.session import TestOutcome as Outcome  # not a test class
from tddslicer.slicer import DeletionUnit, SliceResult
from tddslicer.verifier import PointCheck, VerificationResult, Witness

MODULES = ("lang.ast", "lang.interp", "predicates", "contracts", "verifier", "slicer", "session")


def samples() -> dict:
    """One record of each class, or two where defaults matter, built by
    position with small nested values."""
    x, one = ast.Var("x"), ast.IntLit(1)
    less = ast.Cmp("<", x, one)
    program = ast.Program("f", (ast.Param("o", "out"),), frozenset({"t"}), ast.Block((ast.Skip(1),)))
    dom = Domain((("x", 0, 2), ("b", -1, 1)))  # sorted by name
    contract = Contract(less, ast.BoolLit(True))
    test = TestCase("t", {"x": 0}, {"o": 1})
    verified = VerificationResult("verified", None, 4, dom)
    green = Outcome("t", True, "")
    result = RunResult("ok", {"o": 1}, (TrajectoryEntry(1, "o", 1),), 1)
    record = CycleRecord(1, "t", "new", None, None, False, RedCheck("not_applicable"), green,
                         [green], PointCheck("pass", {}, {"o": 1}, None, result), None, None,
                         False, None, [])
    return {
        "IntLit": one,
        "Var": x,
        "Neg": ast.Neg(x),
        "Arith": ast.Arith("^", x, one),
        "Cmp": less,
        "Not": ast.Not(less),
        "And": ast.And((less, ast.BoolLit(False))),
        "Or": ast.Or((ast.BoolLit(False), less, ast.Not(less))),
        "BoolLit": ast.BoolLit(True),
        "Exists": ast.Exists("k", 0, 3, ast.Cmp("==", x, ast.Var("k"))),
        "Assign": ast.Assign(1, "o", ast.Neg(one)),
        "Skip": ast.Skip(2),
        "If": ast.If(3, less, ast.Block((ast.Skip(4),)), ast.Block()),
        "While": ast.While(5, less, ast.Block()),
        "Block": ast.Block(),
        "Param": ast.Param("x", "in"),
        "Program": program,
        "RunResult": result,
        "RunResult/fault": RunResult("fault", {}, (), 2, 1, "division by zero"),
        "Domain": dom,
        "ImplicationResult": ImplicationResult(False, {"x": 2}, 3, Domain((("x", 2, 2),))),
        "Contract": contract,
        "TestCase": test,
        "TestCase/kind": TestCase("u", {}, {}, "new"),
        "InstanceCheck": InstanceCheck(False, True, False, "why"),
        "SubsumptionCheck": SubsumptionCheck(False, None, None, Domain(()), None),
        "Classification": Classification("regression", 0),
        "Witness": Witness({"x": 1}),
        "Witness/detail": Witness({"x": 1}, {"o": 2}, "fault"),
        "VerificationResult": verified,
        "PointCheck": PointCheck("pre_violation", {"x": 5}, None, "no"),
        "DeletionUnit": DeletionUnit("else_clause", 3),
        "SliceResult": SliceResult(frozenset({DeletionUnit("statement", 1)}), frozenset(), program,
                                   True, "exhaustive", None),
        "Cycle": Cycle(1, test, contract, program),
        "Session": Session("s", (Cycle(2, test, contract, program, "refactor"),), program, dom,
                           {"o": (0, 1)}),
        "TestOutcome": Outcome("t", False, "o=2, expected 1"),
        "RedCheck": RedCheck("not_applicable"),
        "CycleRecord": record,
        "Report": Report("s", Domain(()), [record], contract, True, 100.0, None, []),
    }


# each sample's repr as the dataclasses gave it, recorded before they were
# replaced
PROGRAM = ("Program(name='f', params=(Param(name='o', mode='out'),), locals=frozenset({'t'}), "
           "body=Block(stmts=(Skip(stmt_id=1),)))")
LESS = "Cmp(op='<', left=Var(name='x'), right=IntLit(value=1))"
CONTRACT = f"Contract(pre={LESS}, post=BoolLit(value=True))"
DOM = "Domain(ranges=(('b', -1, 1), ('x', 0, 2)))"
TEST = "TestCase(name='t', inputs={'x': 0}, expected={'o': 1}, declared_kind=None)"
GREEN = "TestOutcome(test='t', passed=True, detail='')"
RESULT = ("RunResult(status='ok', final={'o': 1}, trajectory=(TrajectoryEntry(stmt_id=1, var='o', "
          "value=1),), steps=1, fault_stmt_id=None, fault_reason=None)")
RECORD = (
    "CycleRecord(index=1, test_name='t', classification='new', matched_contract=None, "
    "declared_kind=None, kind_mismatch=False, red=RedCheck(status='not_applicable', detail=''), "
    f"green={GREEN}, regressions=[{GREEN}], contract_point=PointCheck(status='pass', inputs={{}}, "
    f"final={{'o': 1}}, detail=None, run_result={RESULT}), snapshot_contract=None, "
    "oracle_contract=None, implication_witnessed=False, chain_holds=None, errors=[])"
)
REPRS = {
    "IntLit": "IntLit(value=1)",
    "Var": "Var(name='x')",
    "Neg": "Neg(operand=Var(name='x'))",
    "Arith": "Arith(op='^', left=Var(name='x'), right=IntLit(value=1))",
    "Cmp": LESS,
    "Not": f"Not(operand={LESS})",
    "And": f"And(operands=({LESS}, BoolLit(value=False)))",
    "Or": f"Or(operands=(BoolLit(value=False), {LESS}, Not(operand={LESS})))",
    "BoolLit": "BoolLit(value=True)",
    "Exists": "Exists(var='k', lo=0, hi=3, body=Cmp(op='==', left=Var(name='x'), right=Var(name='k')))",
    "Assign": "Assign(stmt_id=1, target='o', expr=Neg(operand=IntLit(value=1)))",
    "Skip": "Skip(stmt_id=2)",
    "If": f"If(stmt_id=3, cond={LESS}, then=Block(stmts=(Skip(stmt_id=4),)), orelse=Block(stmts=()))",
    "While": f"While(stmt_id=5, cond={LESS}, body=Block(stmts=()))",
    "Block": "Block(stmts=())",
    "Param": "Param(name='x', mode='in')",
    "Program": PROGRAM,
    "RunResult": RESULT,
    "RunResult/fault": ("RunResult(status='fault', final={}, trajectory=(), steps=2, fault_stmt_id=1, "
                        "fault_reason='division by zero')"),
    "Domain": DOM,
    "ImplicationResult": ("ImplicationResult(holds=False, witness={'x': 2}, checked_points=3, "
                          "domain=Domain(ranges=(('x', 2, 2),)))"),
    "Contract": CONTRACT,
    "TestCase": TEST,
    "TestCase/kind": "TestCase(name='u', inputs={}, expected={}, declared_kind='new')",
    "InstanceCheck": "InstanceCheck(holds=False, pre_holds=True, post_holds=False, explanation='why')",
    "SubsumptionCheck": ("SubsumptionCheck(holds=False, pre_implication=None, post_implication=None, "
                         "domain=Domain(ranges=()), post_domain=None)"),
    "Classification": "Classification(kind='regression', matched_contract=0)",
    "Witness": "Witness(inputs={'x': 1}, final=None, detail=None)",
    "Witness/detail": "Witness(inputs={'x': 1}, final={'o': 2}, detail='fault')",
    "VerificationResult": f"VerificationResult(verdict='verified', witness=None, checked_points=4, domain={DOM})",
    "PointCheck": "PointCheck(status='pre_violation', inputs={'x': 5}, final=None, detail='no', run_result=None)",
    "DeletionUnit": "DeletionUnit(kind='else_clause', anchor=3)",
    "SliceResult": ("SliceResult(retained=frozenset({DeletionUnit(kind='statement', anchor=1)}), "
                    f"deleted=frozenset(), program={PROGRAM}, minimal=True, strategy='exhaustive', "
                    "verification=None)"),
    "Cycle": f"Cycle(index=1, test={TEST}, contract={CONTRACT}, snapshot={PROGRAM}, note=None)",
    "Session": (f"Session(name='s', cycles=(Cycle(index=2, test={TEST}, contract={CONTRACT}, "
                f"snapshot={PROGRAM}, note='refactor'),), final={PROGRAM}, dom={DOM}, "
                "out_ranges={'o': (0, 1)})"),
    "TestOutcome": "TestOutcome(test='t', passed=False, detail='o=2, expected 1')",
    "RedCheck": "RedCheck(status='not_applicable', detail='')",
    "CycleRecord": RECORD,
    "Report": (f"Report(session_name='s', domain=Domain(ranges=()), cycles=[{RECORD}], "
               f"union_contract={CONTRACT}, union_pre_tautology=True, qlty=100.0, "
               "final_matches_last_snapshot=None, session_errors=[])"),
}

SAMPLES = samples()


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_has_a_sample():
    classes = set()
    for name in MODULES:
        module = importlib.import_module(f"tddslicer.{name}")
        classes |= {value for value in vars(module).values()
                    if isinstance(value, type) and issubclass(value, ast.Record)
                    and value is not ast.Record and value.__module__ == module.__name__}
    assert len(classes) == 36
    assert classes == {type(record) for record in SAMPLES.values()}


@pytest.mark.parametrize("name", list(REPRS))
def test_repr_is_the_dataclass_repr(name):
    assert repr(SAMPLES[name]) == REPRS[name]


@pytest.mark.parametrize("name", list(SAMPLES))
def test_equal_fields_make_equal_records(name):
    record = SAMPLES[name]
    cls, values = type(record), _values(record)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(record._fields, values)))
    assert by_position == record and by_keyword == record and not by_position != record
    assert repr(by_position) == repr(record)
    try:
        expected = hash(values)
    except TypeError:  # a dict or list field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(by_position) == hash(by_keyword) == expected


def test_defaults_and_argument_errors():
    assert ast.Block() == ast.Block(()) == ast.Block(stmts=())
    assert Witness({"x": 1}) == Witness({"x": 1}, None, None) == Witness(inputs={"x": 1})
    assert RunResult("ok", {}, (), 0).fault_reason is None
    assert RedCheck("s").detail == ""
    with pytest.raises(TypeError):  # errors has no default
        CycleRecord(*_values(SAMPLES["CycleRecord"])[:-1])
    with pytest.raises(TypeError):
        ast.Var()
    with pytest.raises(TypeError):
        ast.Var("x", "y")
    with pytest.raises(TypeError):
        ast.Var("x", name="y")
    with pytest.raises(TypeError):
        ast.Var(nam="x")


def test_a_tree_too_deep_to_hash_by_recursion_hashes_the_same():
    """_deep_hash gives a 400-term sum the hash recursion gives it from a
    shallow stack, and hash gives it from a stack too deep to recurse;
    two 5,000-term sums hash alike."""

    def at_depth(depth, call):
        return call() if depth == 0 else at_depth(depth - 1, call)

    pred = parse_predicate(" + ".join(["a"] * 400) + " > 0 || b < 1")
    assert ast._deep_hash(pred) == hash(pred) == at_depth(600, lambda: hash(pred))
    long = " + ".join(["a"] * 5000) + " > 0"
    assert hash(parse_predicate(long)) == hash(parse_predicate(long))


def test_records_of_different_classes_are_unequal():
    a, b = ast.Var("a"), ast.Var("b")
    pairs = [(ast.And((a, b)), ast.Or((a, b))), (ast.Neg(a), ast.Not(a)), (ast.IntLit(1), ast.BoolLit(1)),
             (ast.Skip(1), ast.IntLit(1)), (ast.Var("a"), ("a",)),
             (Outcome("t", True, ""), RedCheck("t", ""))]
    for left, right in pairs:
        assert left != right and right != left and not left == right
    assert ast.IntLit(1) != ast.IntLit(2) and ast.IntLit(True) == ast.IntLit(1)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = SAMPLES[name]
    for field in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == REPRS[name]


def test_deletion_units_sort_by_kind_then_anchor():
    units = [DeletionUnit(kind, anchor) for kind in ("statement", "else_clause") for anchor in (3, 1, 2)]
    assert sorted(units) == sorted(units, key=lambda unit: (unit.kind, unit.anchor))
    assert DeletionUnit("else_clause", 9) < DeletionUnit("statement", 1)
    assert DeletionUnit("statement", 1) <= DeletionUnit("statement", 1)
    assert DeletionUnit("statement", 2) > DeletionUnit("statement", 1)
    assert DeletionUnit("statement", 2) >= DeletionUnit("statement", 2)
    with pytest.raises(TypeError):
        DeletionUnit("statement", 1) < ("statement", 2)


def test_kept_values_never_change_equality_hash_or_repr():
    text = "proc f(in a, out o) { var t; t := a; o := t + 1; }"
    compiled, fresh = parse_program(text), parse_program(text)
    assert run(compiled, {"a": 2}).final["o"] == 3  # keeps its compiled code
    assert compiled == fresh and hash(compiled) == hash(fresh) and repr(compiled) == repr(fresh)
    assert "_compiled" not in compiled._fields
    contract = SAMPLES["Contract"]
    prepared = contract.prepared
    assert prepared is contract.prepared
    plain = Contract(contract.pre, contract.post)
    assert contract == plain and hash(contract) == hash(plain) and repr(contract) == CONTRACT
    assert contract._fields == ("pre", "post")
    assert Contract.of(*prepared) == contract
