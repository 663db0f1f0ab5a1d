"""AST for the mini while-language and its contract predicates, and
Record, the base of every value record in the package.

Every record, node or not, is frozen: values are immutable after
construction and safe to share between threads. Statements carry a pre-order id assigned
by the parser (1-based, contiguous); deletion-based slicing preserves the
ids of surviving statements, so ids in a sliced program may have gaps.

BoolLit and Exists only occur in predicates, never in program bodies; the
program parser rejects them, the shared evaluator handles both. Every
predicate node has a _facts slot, outside its fields, where predicates
keeps what queries derive from it.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import TOO_DEEP, ParseError

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


# --- records ----------------------------------------------------------------


class Record:
    """A class of plain values: its fields are the names of its __slots__
    that do not start with "_" (one that does is a slot outside them, such
    as a value derived and kept on first use). _values is the tuple of the
    fields' values, kept from construction. Every record is frozen:
    assigning or deleting an attribute raises AttributeError (__init__,
    __post_init__ and a derived slot write through the slots' own setters
    or object.__setattr__). A subclass gets:

    - __init__, a closure over its fields, taking them by position or by
      keyword; a field missing from the call takes its default (the class
      keyword defaults). It then calls __post_init__ if the class has one;
    - __eq__: equal to a record of the same class with equal values;
    - __hash__: the hash of _values (see _deep_hash), which raises
      TypeError where a value is unhashable (a list or a dict);
    - __repr__: Name(field=value, ...), each value as repr gives it.
    """

    __slots__ = ("_values",)

    #: the class's fields, in order
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, defaults=None, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fields = fields
        cls.__init__ = _init(cls, fields, defaults or {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        try:
            return hash(self._values)
        except RecursionError:
            return _deep_hash(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map(_ITEM, self._fields, self._values))})"


_ITEM = "{}={!r}".format


class _Hashed(int):
    """An int whose hash is itself, so a tuple hashes it as its record."""
    __hash__ = int.__int__


def _deep_hash(record: Record) -> int:
    """hash(record._values) for a tree too deep to hash by recursion: the
    frozen records below it (fields, items of tuple fields), deepest first
    with a stack of its own, each standing in as the _Hashed of its hash."""
    hashes: dict[int, _Hashed] = {}  # by id
    pending = [record]
    while pending:
        node = pending[-1]
        lacking = [item for value in node._values for item in (value if type(value) is tuple else (value,))
                   if type(item).__hash__ is Record.__hash__ and id(item) not in hashes]
        if lacking:
            pending += lacking
            continue
        pending.pop()
        stand_in = [tuple(hashes.get(id(item), item) for item in value) if type(value) is tuple
                    else hashes.get(id(value), value) for value in node._values]
        hashes[id(node)] = _Hashed(hash(tuple(stand_in)))
    return int(hashes[id(record)])


def _init(cls: type, fields: tuple[str, ...], defaults: dict):
    # the slots' own setters, which Record.__setattr__ does not stop
    setters = tuple(getattr(cls, name).__set__ for name in fields)
    set_values = Record._values.__set__
    count = len(fields)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args: tuple, kwargs: dict) -> tuple:
        if len(args) > count:
            raise TypeError(f"{cls.__name__}() takes {count} arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return tuple(values)

    if post_init is None and count <= len(_UNROLLED):
        return _UNROLLED[count - 1](setters, set_values, bind)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post_init is not None:
            post_init(self)  # which may set a field again
            args = tuple(getattr(self, name) for name in fields)
        set_values(self, args)

    return __init__


# the loop of _init's __init__ unrolled, for records of one to four
# fields (every AST node): a construction takes about a third less time


def _init1(setters, set_values, bind):
    (set0,) = setters

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != 1:
            args = bind(args, kwargs)
        set0(self, args[0])
        set_values(self, args)

    return __init__


def _init2(setters, set_values, bind):
    set0, set1 = setters

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != 2:
            args = bind(args, kwargs)
        value0, value1 = args
        set0(self, value0)
        set1(self, value1)
        set_values(self, args)

    return __init__


def _init3(setters, set_values, bind):
    set0, set1, set2 = setters

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != 3:
            args = bind(args, kwargs)
        value0, value1, value2 = args
        set0(self, value0)
        set1(self, value1)
        set2(self, value2)
        set_values(self, args)

    return __init__


def _init4(setters, set_values, bind):
    set0, set1, set2, set3 = setters

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != 4:
            args = bind(args, kwargs)
        value0, value1, value2, value3 = args
        set0(self, value0)
        set1(self, value1)
        set2(self, value2)
        set3(self, value3)
        set_values(self, args)

    return __init__


_UNROLLED = (_init1, _init2, _init3, _init4)


# --- expressions ---------------------------------------------------------


class IntLit(Record):
    __slots__ = ("value",)
    value: int


class Var(Record):
    __slots__ = ("name",)
    name: str


class Neg(Record):
    __slots__ = ("operand",)
    operand: "Expr"


class Arith(Record):
    """Binary integer operator: + - * / % ^.

    / truncates toward zero and % satisfies a == (a/b)*b + a%b.
    ^ requires a non-negative right operand at evaluation time.
    """

    __slots__ = ("op", "left", "right")
    op: str
    left: "Expr"
    right: "Expr"


Expr = IntLit | Var | Neg | Arith


# --- boolean expressions / predicates ------------------------------------


class Cmp(Record):
    __slots__ = ("op", "left", "right", "_facts")
    op: str
    left: Expr
    right: Expr


class Not(Record):
    __slots__ = ("operand", "_facts")
    operand: "BoolExpr"


# And, Or: one `&&`/`||` chain of two or more operands, judged in order. The
# first is never of the node's own kind, a later one only as in `a || (b || c)`.
class And(Record):
    __slots__ = ("operands", "_facts")
    operands: tuple["BoolExpr", ...]


class Or(Record):
    __slots__ = ("operands", "_facts")
    operands: tuple["BoolExpr", ...]


# a chain's binary view, nested to the left, which perfbench/oracle.py walks
And.left = Or.left = property(lambda node: node.operands[0] if len(node.operands) == 2
                              else type(node)(node.operands[:-1]))
And.right = Or.right = property(lambda node: node.operands[-1])


class BoolLit(Record):
    """TRUE / FALSE. Predicate-only."""

    __slots__ = ("value", "_facts")
    value: bool


class Exists(Record):
    """Bounded existential `exists v in lo..hi : body`. Predicate-only.

    Bounds are inclusive literals with lo <= hi; the bound variable shadows
    any program variable of the same name inside body.
    """

    __slots__ = ("var", "lo", "hi", "body", "_facts")
    var: str
    lo: int
    hi: int
    body: "BoolExpr"


BoolExpr = Cmp | Not | And | Or | BoolLit | Exists


def free_vars(node: Expr | BoolExpr) -> frozenset[str]:
    """Free (unbound) variables of an expression or predicate. Queries call
    it before compiling, so one too deep to walk is ParseError(TOO_DEEP)."""
    try:
        return _free_vars(node)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def _free_vars(node: Expr | BoolExpr) -> frozenset[str]:
    if isinstance(node, IntLit) or isinstance(node, BoolLit):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, (Neg, Not)):
        return _free_vars(node.operand)
    if isinstance(node, (Arith, Cmp)):
        return _free_vars(node.left) | _free_vars(node.right)
    if isinstance(node, (And, Or)):
        return frozenset().union(*map(_free_vars, node.operands))
    if isinstance(node, Exists):
        return _free_vars(node.body) - {node.var}
    raise TypeError(f"not an expression node: {node!r}")


def flatten(pred: BoolExpr, kind: type[And] | type[Or]) -> tuple[BoolExpr, ...]:
    """The operands of pred's chain of kind (And or Or) in order, with
    parenthesized chains of kind flattened too; (pred,) if pred is not one."""
    flat, todo = [], [pred]
    while todo:
        node = todo.pop()
        if isinstance(node, kind):
            todo += reversed(node.operands)
        else:
            flat.append(node)
    return tuple(flat)


#: the widest int a static check computes, in bits: a product whose
#: operands' magnitudes have more bits than this between them is not
#: computed (its interval is unknown), so the walk's cost does not grow with
#: the numbers it bounds; predicates' truth tables stop at as many rows
SPAN_BITS = 4096

_ZERO = IntLit(0)


def fault_free(pred: BoolExpr, ranges: tuple[tuple[str, int, int], ...]) -> bool:
    """Whether pred cannot fault at any point of ranges, (name, lo, hi)
    each, by interval arithmetic (Moore, Interval Analysis, 1966). A
    variable's interval is its range, or inside an exists body the bound
    variable's bounds; + - * and negation are exact, and every other value
    (a quotient, remainder or power, a product past SPAN_BITS, a variable
    outside ranges) is unknown. A / or % is safe when its divisor's
    interval excludes 0, a ^ when its exponent's floor is >= 0; unknown is
    unsafe. Nothing is evaluated, and the walk keeps its own stack."""
    todo: list = [(pred, {name: (lo, hi) for name, lo, hi in ranges})]
    spans: list = []  # the intervals of operands walked, None where unknown
    while todo:
        node, env = todo.pop()
        if isinstance(node, str):  # an operator whose operands are on spans
            right, left = spans.pop(), spans.pop()
            if node in ("/", "%"):
                if right is None or right[0] <= 0 <= right[1]:
                    return False
                spans.append(None)
            elif node == "^":
                if right is None or right[0] < 0:
                    return False
                spans.append(None)
            elif node in CMP_OPS:
                continue
            elif left is None or right is None:
                spans.append(None)
            elif node == "+":
                spans.append((left[0] + right[0], left[1] + right[1]))
            elif node == "-":
                spans.append((left[0] - right[1], left[1] - right[0]))
            elif (max(-left[0], left[1]).bit_length()
                  + max(-right[0], right[1]).bit_length() > SPAN_BITS):
                spans.append(None)
            else:
                corners = [x * y for x in left for y in right]
                spans.append((min(corners), max(corners)))
        elif isinstance(node, IntLit):
            spans.append((node.value, node.value))
        elif isinstance(node, Var):
            spans.append(env.get(node.name))
        elif isinstance(node, Neg):  # as 0 - operand
            todo += [("-", env), (node.operand, env), (_ZERO, env)]
        elif isinstance(node, (Arith, Cmp)):
            todo += [(node.op, env), (node.right, env), (node.left, env)]
        elif isinstance(node, (And, Or)):
            todo += [(operand, env) for operand in reversed(node.operands)]
        elif isinstance(node, Not):
            todo.append((node.operand, env))
        elif isinstance(node, Exists):
            todo.append((node.body, {**env, node.var: (node.lo, node.hi)}))
    return True


# --- statements and programs ----------------------------------------------


class Assign(Record):
    __slots__ = ("stmt_id", "target", "expr")
    stmt_id: int
    target: str
    expr: Expr


class Skip(Record):
    __slots__ = ("stmt_id",)
    stmt_id: int


class If(Record):
    __slots__ = ("stmt_id", "cond", "then", "orelse")
    stmt_id: int
    cond: BoolExpr
    then: "Block"
    orelse: "Block"


class While(Record):
    __slots__ = ("stmt_id", "cond", "body")
    stmt_id: int
    cond: BoolExpr
    body: "Block"


Stmt = Assign | Skip | If | While


class Block(Record, defaults={"stmts": ()}):
    __slots__ = ("stmts",)
    stmts: tuple[Stmt, ...]


class Param(Record):
    __slots__ = ("name", "mode")
    name: str
    mode: str  # "in" | "out"


class Program(Record):
    """A procedure: named params (in/out), zero-initialized locals, a body.

    Invariants (enforced by the parser):
    - parameter and local names are pairwise distinct
    - every variable referenced in the body is a param or a local
    - at least one out-parameter exists
    - statement ids are 1-based, contiguous, pre-order

    _compiled keeps its compiled form (lang.interp), made on first run.
    """

    __slots__ = ("name", "params", "locals", "body", "_compiled")
    name: str
    params: tuple[Param, ...]
    locals: frozenset[str]
    body: Block

    @property
    def in_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.mode == "in")

    @property
    def out_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.mode == "out")

    def statements(self) -> tuple[Stmt, ...]:
        return tuple(walk_statements(self.body))


def walk_statements(block: Block) -> Iterator[Stmt]:
    """Pre-order traversal of every statement in a block."""
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then)
            yield from walk_statements(stmt.orelse)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def same_shape(a: Program | Block | Stmt, b: Program | Block | Stmt) -> bool:
    """Structural equality ignoring statement ids.

    Sliced programs keep their original (gappy) ids, so comparing a slice
    against freshly parsed text needs id-blind equality. The nodes are
    compared field by field with a stack of their own, not by recursion,
    so a program of any depth compares.
    """
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):  # a block's statements, a program's params
            if len(x) != len(y):
                return False
            pending += zip(x, y)
        elif isinstance(x, Record):  # its fields only: a Program keeps its compiled code too
            pending += ((getattr(x, name), getattr(y, name))
                        for name in x._fields if name != "stmt_id")
        elif x != y:
            return False
    return True
