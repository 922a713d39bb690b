"""The front end as it was before the regex lexer and the precedence
table: a character-by-character lexer and a recursive-descent parser with
one method per precedence level.  ``test_front_oracle`` compares
:mod:`calang.syntax` against it.

One deliberate difference from that front end: a number is a run of
decimal digits (``str.isdecimal``, what ``int()`` accepts).  The old
lexer took any ``str.isdigit`` character, so ``1 + \u00b2`` crashed in
``int()``; here, as in :mod:`calang.syntax`, ``\u00b2`` is an unexpected
character.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from calang.syntax import (
    ANON_VARIABLE,
    ARROW,
    ENV_VARIABLE,
    EOF,
    EQUIVOP,
    IDENT,
    INFIX,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    PUNCT,
    RELOP,
    VARIABLE,
    Binary,
    CalSyntaxError,
    Declaration,
    EquivalenceP,
    Header,
    HeadTuple,
    Name,
    NumberLit,
    ProvidedBlock,
    RelationP,
    SetLit,
    SurfaceClause,
    SurfaceDecl,
    SurfacePredicate,
    SurfaceTerm,
    TupleLit,
    Unary,
    VarRef,
)


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self):
        return f"line {self.line}, column {self.col}"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: Pos
    value: object = None


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(source: str) -> list[Token]:
    """Split CAL source text into tokens.

    Every character belongs to exactly one token, whitespace run or
    ``--`` comment; anything else raises :class:`CalSyntaxError` with
    its position.
    """
    tokens: list[Token] = []
    i, n = 0, len(source)
    line, col = 1, 1

    def pos() -> Pos:
        return Pos(line, col)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def peek(offset: int = 0) -> str:
        j = i + offset
        return source[j] if j < n else ""

    while i < n:
        c = source[i]
        if c.isspace():
            advance()
            continue
        if c == "-" and peek(1) == "-":
            while i < n and source[i] != "\n":
                advance()
            continue

        start = pos()

        if c == "$":
            dollars = 1
            if peek(1) == "$":
                dollars = 2
            j = i + dollars
            if j >= n or not _is_name_start(source[j]):
                raise CalSyntaxError("'$' must be followed by a letter or underscore", start)
            k = j
            while k < n and _is_name_char(source[k]):
                k += 1
            name = source[j:k]
            text = source[i:k]
            if dollars == 1 and name == "_":
                kind = ANON_VARIABLE
            elif dollars == 2:
                kind = ENV_VARIABLE
            else:
                kind = VARIABLE
            tokens.append(Token(kind, text, start, (name, dollars)))
            advance(k - i)
            continue

        if c.isdecimal():
            k = i
            while k < n and source[k].isdecimal():
                k += 1
            num_text = source[i:k]
            # "n/d" with no intervening space is a single rational literal.
            if k < n and source[k] == "/" and k + 1 < n and source[k + 1].isdecimal():
                k += 1
                d0 = k
                while k < n and source[k].isdecimal():
                    k += 1
                den = source[d0:k]
                if int(den) == 0:
                    raise CalSyntaxError(f"rational literal {source[i:k]!r} has a zero denominator", start)
                value = Fraction(int(num_text), int(den))
                tokens.append(Token(NUMBER, source[i:k], start, value))
            else:
                tokens.append(Token(NUMBER, num_text, start, Fraction(int(num_text))))
            advance(k - i)
            continue

        if _is_name_start(c):
            k = i
            while k < n and _is_name_char(source[k]):
                k += 1
            word = source[i:k]
            kind = KEYWORD if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, start))
            advance(k - i)
            continue

        two = source[i:i + 2]
        three = source[i:i + 3]
        if three == ":=:":
            tokens.append(Token(EQUIVOP, three, start))
            advance(3)
            continue
        if two in ("->", "=>"):
            tokens.append(Token(ARROW, two, start))
            advance(2)
            continue
        if two in (">=", "<=", "!="):
            tokens.append(Token(RELOP, two, start))
            advance(2)
            continue
        if two == "\\/":
            tokens.append(Token(INFIX, two, start))
            advance(2)
            continue
        if c == "\\":
            raise CalSyntaxError("stray '\\' (the only backslash token is '\\/')", start)
        if c in "=><":
            tokens.append(Token(RELOP, c, start))
            advance()
            continue
        if c in "+-*/^":
            tokens.append(Token(INFIX, c, start))
            advance()
            continue
        if c in "(){},;:":
            tokens.append(Token(PUNCT, c, start))
            advance()
            continue
        raise CalSyntaxError(f"unexpected character {c!r}", start)

    tokens.append(Token(EOF, "", pos()))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, offset: int = 0) -> Token:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != EOF:
            self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None, what: Optional[str] = None) -> Token:
        if self.at(kind, text):
            return self.next()
        t = self.peek()
        wanted = what or (text if text is not None else kind)
        found = t.text or "end of input"
        raise CalSyntaxError(f"expected {wanted!r}, found {found!r}", t.pos)

    def fail(self, message: str):
        raise CalSyntaxError(message, self.peek().pos)

    # -- declarations ------------------------------------------------------

    def program(self) -> tuple[Declaration, ...]:
        decls = []
        while not self.at(EOF):
            decls.append(self.declaration())
        return tuple(decls)

    def declaration(self) -> Declaration:
        header = self.header()
        decls = self.decl_list(top_level=True)
        return Declaration(header, decls)

    def header(self) -> Header:
        box = self.expect(KEYWORD, "box")
        name = self.expect(IDENT, what="box name").text
        if self.accept(PUNCT, "("):
            inputs, outputs = self.signature()
            self.expect(PUNCT, ")")
            self.expect(PUNCT, ":")
        else:
            # Alternate header: "box NAME: sig" with no closing colon.
            self.expect(PUNCT, ":")
            inputs, outputs = self.signature()
        return Header(name, inputs, outputs, box.pos)

    def signature(self) -> tuple[Optional[tuple[str, ...]], tuple[tuple[str, ...], ...]]:
        inputs = self.tuple_type() if self.at(PUNCT, "(") else None
        self.expect(ARROW, what="'->' or '=>'")
        outputs = []
        if self.at(PUNCT, "("):
            outputs.append(self.tuple_type())
            while self.accept(PUNCT, ","):
                outputs.append(self.tuple_type())
        return inputs, tuple(outputs)

    def tuple_type(self) -> tuple[str, ...]:
        self.expect(PUNCT, "(")
        fields = []
        if not self.at(PUNCT, ")"):
            fields.append(self.expect(IDENT, what="field name").text)
            while self.accept(PUNCT, ","):
                fields.append(self.expect(IDENT, what="field name").text)
        self.expect(PUNCT, ")")
        return tuple(fields)

    def decl_list(self, top_level: bool) -> tuple[SurfaceDecl, ...]:
        decls: list[SurfaceDecl] = []
        while True:
            if self.at(EOF) or self.at(KEYWORD, "end"):
                break
            if top_level and self.at(KEYWORD, "box"):
                break
            decls.append(self.decl(decls))
            if not self.accept(PUNCT, ";"):
                break
        return tuple(decls)

    def decl(self, previous: list[SurfaceDecl]) -> SurfaceDecl:
        if self.at(KEYWORD, "provided"):
            return self.provided()
        return self.clause(previous)

    def provided(self) -> ProvidedBlock:
        start = self.expect(KEYWORD, "provided")
        conds = self.predicate_list()
        self.expect(KEYWORD, "use")
        body = self.decl_list(top_level=False)
        self.expect(KEYWORD, "end")
        return ProvidedBlock(tuple(conds), body, start.pos)

    def clause(self, previous: list[SurfaceDecl]) -> SurfaceClause:
        start = self.peek().pos
        conditions: tuple[SurfacePredicate, ...] = ()
        if not self.at(ARROW, "=>"):
            preds = self.predicate_list()
            if not self.at(ARROW, "=>"):
                # Predicates with no "=>" continue the previous clause's
                # assertion list (";" where the author meant ",").
                if previous and isinstance(previous[-1], SurfaceClause):
                    prev = previous.pop()
                    return SurfaceClause(prev.conditions, prev.assertions + tuple(preds), prev.pos)
                self.fail("expected '=>' in clause")
            conditions = tuple(preds)
        self.expect(ARROW, "=>")
        assertions = tuple(self.predicate_list())
        return SurfaceClause(conditions, assertions, start)

    # -- predicates and terms ----------------------------------------------

    def predicate_list(self) -> list[SurfacePredicate]:
        preds = [self.predicate()]
        while self.accept(PUNCT, ","):
            preds.append(self.predicate())
        return preds

    def predicate(self) -> SurfacePredicate:
        lhs_pos = self.peek().pos
        lhs = self.expression()
        if self.accept(EQUIVOP):
            return EquivalenceP(lhs, self.expression())
        if self.at(RELOP):
            op = self.next().text
            if not isinstance(lhs, (VarRef, NumberLit)):
                raise CalSyntaxError(
                    "the left-hand side of a relation must be a variable or a number", lhs_pos)
            return RelationP(lhs, op, self.expression())
        self.fail("expected a relational operator or ':=:'")

    def expression(self) -> SurfaceTerm:
        return self.union_exp()

    def union_exp(self) -> SurfaceTerm:
        t = self.add_exp()
        while self.at(INFIX, "\\/"):
            self.next()
            t = Binary("\\/", t, self.add_exp())
        return t

    def add_exp(self) -> SurfaceTerm:
        t = self.signed_prod()
        while self.at(INFIX, "+") or self.at(INFIX, "-"):
            op = self.next().text
            t = Binary(op, t, self.signed_prod())
        return t

    def signed_prod(self) -> SurfaceTerm:
        # A leading sign applies to the whole product: -x^2 is -(x^2).
        if self.at(INFIX, "-") or self.at(INFIX, "+"):
            op = self.next().text
            operand = self.signed_prod()
            if op == "+":
                return operand
            if isinstance(operand, NumberLit):
                return NumberLit(-operand.value)
            return Unary(op, operand)
        return self.mul_exp()

    def mul_exp(self) -> SurfaceTerm:
        t = self.pow_exp()
        while self.at(INFIX, "*") or self.at(INFIX, "/"):
            op = self.next().text
            t = Binary(op, t, self.pow_exp())
        return t

    def pow_exp(self) -> SurfaceTerm:
        t = self.primary()
        while self.at(INFIX, "^"):
            self.next()
            t = Binary("^", t, self.primary())
        return t

    def primary(self) -> SurfaceTerm:
        t = self.peek()
        if t.kind == NUMBER:
            self.next()
            return NumberLit(t.value)
        if t.kind in (VARIABLE, ENV_VARIABLE, ANON_VARIABLE):
            self.next()
            name, dollars = t.value
            return VarRef(name, dollars)
        if t.kind == IDENT:
            self.next()
            if self.at(PUNCT, "("):
                return HeadTuple(t.text, self.term_args())
            return Name(t.text)
        if t.kind == PUNCT and t.text == "(":
            self.next()
            first = self.expression()
            if self.accept(PUNCT, ","):
                members = [first, self.expression()]
                while self.accept(PUNCT, ","):
                    members.append(self.expression())
                self.expect(PUNCT, ")")
                return TupleLit(tuple(members))
            self.expect(PUNCT, ")")
            return first  # plain grouping
        if t.kind == PUNCT and t.text == "{":
            self.next()
            members = []
            if not self.at(PUNCT, "}"):
                members.append(self.expression())
                while self.accept(PUNCT, ","):
                    members.append(self.expression())
            self.expect(PUNCT, "}")
            return SetLit(tuple(members))
        self.fail(f"expected a term, found {t.text!r}" if t.text else "expected a term")

    def term_args(self) -> tuple[SurfaceTerm, ...]:
        self.expect(PUNCT, "(")
        args = [self.expression()]
        while self.accept(PUNCT, ","):
            args.append(self.expression())
        self.expect(PUNCT, ")")
        return tuple(args)


def parse_program(source: str) -> tuple[Declaration, ...]:
    return _Parser(tokenize(source)).program()


def parse_term(source: str) -> SurfaceTerm:
    p = _Parser(tokenize(source))
    t = p.expression()
    p.expect(EOF, what="end of input")
    return t
