"""Recursive-descent parsers for programs, predicates, domains, bindings.

One expression grammar serves both the program language and the predicate
language; predicate mode additionally accepts TRUE, FALSE and bounded
existentials. A parenthesis can open either a boolean or an arithmetic
expression, so boolean primaries backtrack once on `(`.

Statement ids are assigned in pre-order while parsing, starting at 1.
"""

from __future__ import annotations

from ..errors import TOO_DEEP, ParseError
from . import ast
from .lexer import EOF, RESERVED, Token, tokenize


class _Parser:
    def __init__(self, text: str, predicate_mode: bool = False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.predicate_mode = predicate_mode
        self.next_stmt_id = 1
        # (name, line, col) for every variable reference in a program body
        self.var_refs: list[tuple[str, int, int]] = []

    # -- cursor helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or f"'{kind}'"
            raise ParseError(f"expected {expected}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not self.at("ident", word):
            raise ParseError(f"expected '{word}', found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != EOF:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    def ident(self, what: str) -> Token:
        tok = self.expect("ident", what)
        if tok.text in RESERVED:
            raise ParseError(f"reserved word {tok.text!r} used as {what}", tok.line, tok.col)
        return tok

    def literal(self) -> int:
        tok = self.expect("int", "integer literal")
        try:
            return int(tok.text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ParseError("integer literal too long", tok.line, tok.col) from None

    def signed_int(self) -> int:
        if self.at("-"):
            self.advance()
            return -self.literal()
        return self.literal()

    def bounds(self) -> tuple[int, int]:
        """`in lo..hi`, not checked for lo <= hi."""
        self.expect_keyword("in")
        lo = self.signed_int()
        self.expect("..")
        return lo, self.signed_int()

    def comma_list(self, item) -> list:
        """One item(), then one more after each comma."""
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return items

    # -- arithmetic expressions ---------------------------------------------

    def arith_expr(self) -> ast.Expr:
        left = self.term()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            left = ast.Arith(op, left, self.term())
        return left

    def term(self) -> ast.Expr:
        left = self.unary()
        while self.at("*") or self.at("/") or self.at("%"):
            op = self.advance().text
            left = ast.Arith(op, left, self.unary())
        return left

    def unary(self) -> ast.Expr:
        if self.at("-"):
            self.advance()
            # a directly negated literal is a negative literal, unless a
            # power follows: ^ binds tighter than unary minus
            if self.at("int") and self.tokens[self.pos + 1].kind != "^":
                return ast.IntLit(-self.literal())
            return ast.Neg(self.unary())
        return self.power()

    def power(self) -> ast.Expr:
        base = self.atom()
        if self.at("^"):
            self.advance()
            return ast.Arith("^", base, self.unary())
        return base

    def atom(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "int":
            return ast.IntLit(self.literal())
        if tok.kind == "ident" and tok.text not in RESERVED:
            self.advance()
            self.var_refs.append((tok.text, tok.line, tok.col))
            return ast.Var(tok.text)
        if tok.kind == "(":
            self.advance()
            expr = self.arith_expr()
            self.expect(")")
            return expr
        raise ParseError(f"expected expression, found {tok.text!r}", tok.line, tok.col)

    # -- boolean expressions / predicates ------------------------------------

    def bool_expr(self) -> ast.BoolExpr:
        left = self.bool_and()
        while self.at("||"):
            self.advance()
            left = ast.Or(left, self.bool_and())
        return left

    def bool_and(self) -> ast.BoolExpr:
        left = self.bool_unary()
        while self.at("&&"):
            self.advance()
            left = ast.And(left, self.bool_unary())
        return left

    def bool_unary(self) -> ast.BoolExpr:
        if self.at("!"):
            self.advance()
            return ast.Not(self.bool_unary())
        return self.bool_primary()

    def bool_primary(self) -> ast.BoolExpr:
        tok = self.peek()
        if self.predicate_mode:
            if self.at("ident", "TRUE"):
                self.advance()
                return ast.BoolLit(True)
            if self.at("ident", "FALSE"):
                self.advance()
                return ast.BoolLit(False)
            if self.at("ident", "exists"):
                return self.existential()
        if tok.kind == "(":
            # Could be a parenthesized boolean or the start of an arithmetic
            # operand: try boolean first, backtrack on failure.
            saved = self.pos
            saved_refs = len(self.var_refs)
            try:
                self.advance()
                inner = self.bool_expr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
                del self.var_refs[saved_refs:]
        return self.comparison()

    def comparison(self) -> ast.Cmp:
        left = self.arith_expr()
        tok = self.peek()
        if tok.kind not in ast.CMP_OPS:
            raise ParseError(f"expected comparison operator, found {tok.text!r}", tok.line, tok.col)
        self.advance()
        return ast.Cmp(tok.kind, left, self.arith_expr())

    def existential(self) -> ast.Exists:
        start = self.expect_keyword("exists")
        var = self.ident("bound variable")
        lo, hi = self.bounds()
        if lo > hi:
            raise ParseError(
                f"existential range {lo}..{hi} is empty (lo > hi)", start.line, start.col
            )
        self.expect(":")
        body = self.bool_expr()  # maximal scope, like a quantifier
        return ast.Exists(var.text, lo, hi, body)

    # -- statements and programs ----------------------------------------------

    def program(self) -> ast.Program:
        self.expect_keyword("proc")
        name = self.ident("procedure name")
        self.expect("(")
        params = self.comma_list(self.param)
        self.expect(")")
        self.locals_found: list[Token] = []
        body = self.block()
        self.expect_eof()
        return self.assemble_program(name, params, body)

    def param(self) -> ast.Param:
        tok = self.peek()
        if not (self.at("ident", "in") or self.at("ident", "out")):
            raise ParseError(f"expected 'in' or 'out', found {tok.text!r}", tok.line, tok.col)
        mode = self.advance().text
        name = self.ident("parameter name")
        return ast.Param(name.text, mode)

    def block(self) -> ast.Block:
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.at("}"):
            if self.at("ident", "var"):
                self.vardecl()
            else:
                stmts.append(self.statement())
        self.expect("}")
        return ast.Block(tuple(stmts))

    def vardecl(self):
        self.expect_keyword("var")
        self.locals_found += self.comma_list(lambda: self.ident("local name"))
        self.expect(";")

    def statement(self) -> ast.Stmt:
        tok = self.peek()
        if self.at("ident", "skip"):
            stmt_id = self.take_stmt_id()
            self.advance()
            self.expect(";")
            return ast.Skip(stmt_id)
        if self.at("ident", "if"):
            stmt_id = self.take_stmt_id()
            self.advance()
            self.expect("(")
            cond = self.bool_expr()
            self.expect(")")
            then = self.block()
            orelse = ast.Block()
            if self.at("ident", "else"):
                self.advance()
                orelse = self.block()
            return ast.If(stmt_id, cond, then, orelse)
        if self.at("ident", "while"):
            stmt_id = self.take_stmt_id()
            self.advance()
            self.expect("(")
            cond = self.bool_expr()
            self.expect(")")
            body = self.block()
            return ast.While(stmt_id, cond, body)
        if tok.kind == "ident" and tok.text not in RESERVED:
            stmt_id = self.take_stmt_id()
            target = self.ident("assignment target")
            self.var_refs.append((target.text, target.line, target.col))
            self.expect(":=")
            expr = self.arith_expr()
            self.expect(";")
            return ast.Assign(stmt_id, target.text, expr)
        raise ParseError(f"expected statement, found {tok.text!r}", tok.line, tok.col)

    def take_stmt_id(self) -> int:
        stmt_id = self.next_stmt_id
        self.next_stmt_id += 1
        return stmt_id

    def assemble_program(
        self, name: Token, params: list[ast.Param], body: ast.Block
    ) -> ast.Program:
        names = [p.name for p in params]
        for n in names:
            if names.count(n) > 1:
                raise ParseError(f"duplicate identifier {n!r}")
        declared = set(names)
        for tok in self.locals_found:
            if tok.text in declared:
                raise ParseError(f"duplicate identifier {tok.text!r}", tok.line, tok.col)
            declared.add(tok.text)
        if not any(p.mode == "out" for p in params):
            raise ParseError(f"procedure {name.text!r} has no out parameter", name.line, name.col)
        for ref, line, col in self.var_refs:
            if ref not in declared:
                raise ParseError(f"undeclared variable {ref!r}", line, col)
        return ast.Program(
            name=name.text,
            params=tuple(params),
            locals=frozenset(t.text for t in self.locals_found),
            body=body,
        )


def parse_program(text: str) -> ast.Program:
    """Parse a procedure; assigns pre-order statement ids starting at 1."""
    try:
        return _Parser(text).program()
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def parse_predicate(text: str) -> ast.BoolExpr:
    """Parse a contract predicate (bool grammar + TRUE/FALSE/exists)."""
    parser = _Parser(text, predicate_mode=True)
    try:
        pred = parser.bool_expr()
    except RecursionError:
        raise ParseError(TOO_DEEP) from None
    parser.expect_eof()
    return pred


def _named_values(text: str, what: str, value) -> dict:
    """Parse `name <value>, ...` up to the end of input into
    {name: value(parser, name_token)}; empty text gives an empty dict."""
    parser = _Parser(text)
    found: dict = {}

    def entry():
        name = parser.ident("variable name")
        if name.text in found:
            raise ParseError(f"duplicate {what} for {name.text!r}", name.line, name.col)
        found[name.text] = value(parser, name)

    if parser.peek().kind != EOF:
        parser.comma_list(entry)
    parser.expect_eof()
    return found


def _range(parser: _Parser, name: Token) -> tuple[int, int]:
    lo, hi = parser.bounds()
    if lo > hi:
        raise ParseError(f"empty range {lo}..{hi} for {name.text!r}", name.line, name.col)
    return lo, hi


def _binding(parser: _Parser, name: Token) -> int:
    parser.expect("=")
    return parser.signed_int()


def parse_domain_spec(text: str) -> dict[str, tuple[int, int]]:
    """Parse `x in 0..16, y in 1..9` into {name: (lo, hi)}."""
    return _named_values(text, "range", _range)


def parse_bindings(text: str) -> dict[str, int]:
    """Parse `x=2, y=2` into {name: value}. Empty text is an empty binding."""
    return _named_values(text, "binding", _binding)
