"""Recursive-descent parsers for programs, predicates, domains, bindings.

One expression grammar serves both the program language and the predicate
language; predicate mode additionally accepts TRUE, FALSE and bounded
existentials. A parenthesis can open either a boolean or an arithmetic
expression, so boolean primaries backtrack once on `(`.

The parser is an index cursor over the scan's parallel lists: it reads
`kinds[pos]` and `texts[pos]` and moves `pos`, with no token object and no
method call per token. Each binary level loops while the next kind is in
the frozenset of its operators (Pratt's operator loops); unary minus, powers
and atoms are one method, `!` and boolean primaries another, and a block
parses its statements inline, so a nested block costs one frame.

No position is computed while a parse succeeds. A syntax error is raised
inside the parser as a `_Failure` at a token index, which the backtrack on
`(` catches cheaply; only where a parse ends does it become a ParseError,
with the token's line and column from `lexer.position`. A program's
variable references are kept as token indexes for the same reason.

Statement ids are assigned in pre-order while parsing, starting at 1.
"""

from __future__ import annotations

from ..errors import TOO_DEEP, ParseError
from . import ast
from .lexer import EOF, RESERVED, position, scan

_ADD_OPS = frozenset(("+", "-"))
_MUL_OPS = frozenset(("*", "/", "%"))
_CMP_OPS = frozenset(ast.CMP_OPS)


class _Failure(Exception):
    """A syntax or scope error at a token index, or at no position."""

    def __init__(self, message: str, index: int | None = None):
        self.message = message
        self.index = index


class _Parser:
    def __init__(self, text: str, predicate_mode: bool = False):
        self.kinds, self.texts = scan(text)
        self.pos = 0
        self.predicate_mode = predicate_mode
        self.next_stmt_id = 1
        # the token index of every variable reference in a program body
        self.var_refs: list[int] = []
        # the token index of every local name declared
        self.locals_found: list[int] = []

    def expected(self, what: str) -> _Failure:
        return _Failure(f"expected {what}, found {self.texts[self.pos]!r}", self.pos)

    def name(self, what: str) -> int:
        """Step over an identifier that is not a reserved word; its index."""
        pos = self.pos
        if self.kinds[pos] != "ident":
            raise self.expected(what)
        word = self.texts[pos]
        if word in RESERVED:
            raise _Failure(f"reserved word {word!r} used as {what}", pos)
        self.pos = pos + 1
        return pos

    def signed_int(self) -> int:
        kinds = self.kinds
        pos = self.pos
        negative = kinds[pos] == "-"
        if negative:
            pos += 1
        if kinds[pos] != "int":
            self.pos = pos
            raise self.expected("integer literal")
        try:
            value = int(self.texts[pos])
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise _Failure("integer literal too long", pos) from None
        self.pos = pos + 1
        return -value if negative else value

    def bounds(self) -> tuple[int, int]:
        """`in lo..hi`, not checked for lo <= hi."""
        pos = self.pos
        if self.kinds[pos] != "ident" or self.texts[pos] != "in":
            raise self.expected("'in'")
        self.pos = pos + 1
        lo = self.signed_int()
        if self.kinds[self.pos] != "..":
            raise self.expected("'..'")
        self.pos += 1
        return lo, self.signed_int()

    def end(self):
        if self.kinds[self.pos] != EOF:
            raise _Failure(f"unexpected trailing input {self.texts[self.pos]!r}", self.pos)

    # -- arithmetic expressions ---------------------------------------------

    def arith_expr(self) -> ast.Expr:
        left = self.term()
        kinds = self.kinds
        while (op := kinds[self.pos]) in _ADD_OPS:
            self.pos += 1
            left = ast.Arith(op, left, self.term())
        return left

    def term(self) -> ast.Expr:
        left = self.unary()
        kinds = self.kinds
        while (op := kinds[self.pos]) in _MUL_OPS:
            self.pos += 1
            left = ast.Arith(op, left, self.unary())
        return left

    def unary(self) -> ast.Expr:
        """`-` unary, or an atom (a literal, a variable or a parenthesized
        sum) raised by `^` to a unary: ^ binds tighter than unary minus and
        associates to the right."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        kind = kinds[pos]
        if kind == "-":
            # a directly negated literal is a negative literal, unless a
            # power follows
            if kinds[pos + 1] == "int" and kinds[pos + 2] != "^":
                try:
                    value = int(texts[pos + 1])
                except ValueError:  # longer than sys.get_int_max_str_digits()
                    raise _Failure("integer literal too long", pos + 1) from None
                self.pos = pos + 2
                return ast.IntLit(-value)
            self.pos = pos + 1
            return ast.Neg(self.unary())
        if kind == "int":
            try:
                base = ast.IntLit(int(texts[pos]))
            except ValueError:
                raise _Failure("integer literal too long", pos) from None
            self.pos = pos + 1
        elif kind == "ident" and texts[pos] not in RESERVED:
            self.var_refs.append(pos)
            base = ast.Var(texts[pos])
            self.pos = pos + 1
        elif kind == "(":
            self.pos = pos + 1
            base = self.arith_expr()
            if kinds[self.pos] != ")":
                raise self.expected("')'")
            self.pos += 1
        else:
            raise self.expected("expression")
        if kinds[self.pos] == "^":
            self.pos += 1
            return ast.Arith("^", base, self.unary())
        return base

    # -- boolean expressions / predicates ------------------------------------

    def bool_expr(self) -> ast.BoolExpr:
        left = self.bool_and()
        kinds = self.kinds
        while kinds[self.pos] == "||":
            self.pos += 1
            left = ast.Or(left, self.bool_and())
        return left

    def bool_and(self) -> ast.BoolExpr:
        left = self.bool_unary()
        kinds = self.kinds
        while kinds[self.pos] == "&&":
            self.pos += 1
            left = ast.And(left, self.bool_unary())
        return left

    def bool_unary(self) -> ast.BoolExpr:
        """`!` bool_unary, TRUE, FALSE, an existential, a parenthesized
        boolean, or a comparison."""
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        if kind == "!":
            self.pos = pos + 1
            return ast.Not(self.bool_unary())
        if kind == "ident" and self.predicate_mode:
            word = self.texts[pos]
            if word == "TRUE" or word == "FALSE":
                self.pos = pos + 1
                return ast.BoolLit(word == "TRUE")
            if word == "exists":
                return self.existential()
        elif kind == "(":
            # Could be a parenthesized boolean or the start of an arithmetic
            # operand: try boolean first, backtrack on failure.
            refs = len(self.var_refs)
            self.pos = pos + 1
            try:
                inner = self.bool_expr()
            except _Failure:
                inner = None
            if inner is not None and kinds[self.pos] == ")":
                self.pos += 1
                return inner
            self.pos = pos
            del self.var_refs[refs:]
        return self.comparison()

    def comparison(self) -> ast.Cmp:
        left = self.arith_expr()
        op = self.kinds[self.pos]
        if op not in _CMP_OPS:
            raise self.expected("comparison operator")
        self.pos += 1
        return ast.Cmp(op, left, self.arith_expr())

    def existential(self) -> ast.Exists:
        start = self.pos  # at `exists`
        self.pos += 1
        var = self.texts[self.name("bound variable")]
        lo, hi = self.bounds()
        if lo > hi:
            raise _Failure(f"existential range {lo}..{hi} is empty (lo > hi)", start)
        if self.kinds[self.pos] != ":":
            raise self.expected("':'")
        self.pos += 1
        body = self.bool_expr()  # maximal scope, like a quantifier
        return ast.Exists(var, lo, hi, body)

    # -- statements and programs ----------------------------------------------

    def program(self) -> ast.Program:
        kinds, texts = self.kinds, self.texts
        if kinds[0] != "ident" or texts[0] != "proc":
            raise self.expected("'proc'")
        self.pos = 1
        name = self.name("procedure name")
        if kinds[self.pos] != "(":
            raise self.expected("'('")
        params = []
        while True:
            self.pos += 1
            pos = self.pos
            mode = texts[pos]
            if kinds[pos] != "ident" or (mode != "in" and mode != "out"):
                raise self.expected("'in' or 'out'")
            self.pos = pos + 1
            params.append(ast.Param(texts[self.name("parameter name")], mode))
            if kinds[self.pos] != ",":
                break
        if kinds[self.pos] != ")":
            raise self.expected("')'")
        self.pos += 1
        body = self.block()
        self.end()
        return self.assemble_program(name, params, body)

    def block(self) -> ast.Block:
        """`{`, declarations and statements, `}`; an if or a while parses
        its blocks by recursion here, one frame per level of nesting."""
        kinds, texts = self.kinds, self.texts
        if kinds[self.pos] != "{":
            raise self.expected("'{'")
        self.pos += 1
        stmts: list[ast.Stmt] = []
        while (kind := kinds[self.pos]) != "}":
            pos = self.pos
            word = texts[pos]
            if kind != "ident" or (word in RESERVED and word not in ("var", "if", "while", "skip")):
                raise self.expected("statement")
            self.pos = pos + 1
            if word == "var":
                self.locals_found.append(self.name("local name"))
                while kinds[self.pos] == ",":
                    self.pos += 1
                    self.locals_found.append(self.name("local name"))
                if kinds[self.pos] != ";":
                    raise self.expected("';'")
                self.pos += 1
                continue
            stmt_id = self.next_stmt_id
            self.next_stmt_id += 1
            if word not in RESERVED:  # an assignment
                self.var_refs.append(pos)
                if kinds[pos + 1] != ":=":
                    raise self.expected("':='")
                self.pos = pos + 2
                expr = self.arith_expr()
                if kinds[self.pos] != ";":
                    raise self.expected("';'")
                self.pos += 1
                stmts.append(ast.Assign(stmt_id, word, expr))
            elif word == "skip":
                if kinds[pos + 1] != ";":
                    raise self.expected("';'")
                self.pos = pos + 2
                stmts.append(ast.Skip(stmt_id))
            else:  # an if or a while
                if kinds[pos + 1] != "(":
                    raise self.expected("'('")
                self.pos = pos + 2
                cond = self.bool_expr()
                if kinds[self.pos] != ")":
                    raise self.expected("')'")
                self.pos += 1
                body = self.block()
                if word == "while":
                    stmts.append(ast.While(stmt_id, cond, body))
                    continue
                orelse = ast.Block()
                if kinds[self.pos] == "ident" and texts[self.pos] == "else":
                    self.pos += 1
                    orelse = self.block()
                stmts.append(ast.If(stmt_id, cond, body, orelse))
        self.pos += 1
        return ast.Block(tuple(stmts))

    def assemble_program(
        self, name: int, params: list[ast.Param], body: ast.Block
    ) -> ast.Program:
        texts = self.texts
        names = [p.name for p in params]
        for n in names:
            if names.count(n) > 1:
                raise _Failure(f"duplicate identifier {n!r}")
        declared = set(names)
        for index in self.locals_found:
            local = texts[index]
            if local in declared:
                raise _Failure(f"duplicate identifier {local!r}", index)
            declared.add(local)
        if not any(p.mode == "out" for p in params):
            raise _Failure(f"procedure {texts[name]!r} has no out parameter", name)
        for index in self.var_refs:
            if texts[index] not in declared:
                raise _Failure(f"undeclared variable {texts[index]!r}", index)
        return ast.Program(
            name=texts[name],
            params=tuple(params),
            locals=frozenset(texts[index] for index in self.locals_found),
            body=body,
        )


def _parse(text: str, production, predicate_mode: bool = False):
    """production(parser) over text; a failure becomes a ParseError at its
    token's line and column, and recursion too deep ParseError(TOO_DEEP)."""
    parser = _Parser(text, predicate_mode)
    try:
        return production(parser)
    except _Failure as failure:
        where = () if failure.index is None else position(text, failure.index)
        raise ParseError(failure.message, *where) from None
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def parse_program(text: str) -> ast.Program:
    """Parse a procedure; assigns pre-order statement ids starting at 1."""
    return _parse(text, _Parser.program)


def _predicate(parser: _Parser) -> ast.BoolExpr:
    pred = parser.bool_expr()
    parser.end()
    return pred


def parse_predicate(text: str) -> ast.BoolExpr:
    """Parse a contract predicate (bool grammar + TRUE/FALSE/exists)."""
    return _parse(text, _predicate, predicate_mode=True)


def _named_values(parser: _Parser, what: str, value) -> dict:
    """`name <value>, ...` up to the end of input as {name: value(parser,
    name's index)}; empty text gives an empty dict."""
    found: dict = {}
    if parser.kinds[0] != EOF:
        while True:
            index = parser.name("variable name")
            name = parser.texts[index]
            if name in found:
                raise _Failure(f"duplicate {what} for {name!r}", index)
            found[name] = value(parser, index)
            if parser.kinds[parser.pos] != ",":
                break
            parser.pos += 1
    parser.end()
    return found


def _range(parser: _Parser, name: int) -> tuple[int, int]:
    lo, hi = parser.bounds()
    if lo > hi:
        raise _Failure(f"empty range {lo}..{hi} for {parser.texts[name]!r}", name)
    return lo, hi


def _binding(parser: _Parser, name: int) -> int:
    if parser.kinds[parser.pos] != "=":
        raise parser.expected("'='")
    parser.pos += 1
    return parser.signed_int()


def parse_domain_spec(text: str) -> dict[str, tuple[int, int]]:
    """Parse `x in 0..16, y in 1..9` into {name: (lo, hi)}."""
    return _parse(text, lambda parser: _named_values(parser, "range", _range))


def parse_bindings(text: str) -> dict[str, int]:
    """Parse `x=2, y=2` into {name: value}. Empty text is an empty binding."""
    return _parse(text, lambda parser: _named_values(parser, "binding", _binding))
