"""Surface syntax of CAL: box declarations, terms and network expressions.

This module owns the textual side of the language: a lexer, a parser
producing a surface AST, and a canonical renderer such that
``parse(render(ast))`` is structurally equal to ``ast``; core terms
are rendered through it too.  It also parses the network expressions of
``.net`` files: box names combined by ``..`` (serial, with an optional
edge cost ``..[term]``) and ``|`` (parallel).

The lexer splits the text with one compiled regular expression, an
alternation with one branch per token class, into flat strings: each
whitespace run and the token after it.  It classifies each distinct token
text once per call, in a dict from text to kind and value, and makes one
flat tuple per token; a token's ``pos`` property builds its position.  The
parser is recursive descent for declarations and network expressions and
precedence climbing for terms; one table, ``_BINARY_PREC`` with
``_UNARY_PREC``, gives the binding strength of every operator to both
the parser and the renderer.  Terms and network expressions nested
deeper than ``MAX_TERM_DEPTH`` levels are a syntax error, so that every
recursive walk over them stays far from Python's recursion limit.

The surface AST keeps syntactic sugar intact (infix operators, head
extraction, unary signs); lowering to the core term algebra happens in
:mod:`calang.terms`, and to networks of box instances in
:mod:`calang.aggregate`.

Accepted leniencies beyond the base grammar, all deliberate:

* ``--`` starts a comment running to end of line.
* Two header forms: ``box NAME ((a,b) -> (c)):`` and
  ``box NAME: (a,b) => (c)``.  The first is the canonical one.
* ``provided Conds use ... end`` may contain any number of
  ``;``-separated declarations, not just one.
* A clause may start directly with ``=>`` (empty condition).
* The ``;`` after the last declaration of a block is optional.
* A ``;``-separated predicate list with no ``=>`` of its own continues
  the assertion list of the preceding clause.
* Set literals may be empty, and may syntactically contain set members
  (the well-formedness check in the terms module flags those; predicates
  using them fail at evaluation time rather than at parse time).
* Unary ``+``/``-`` may start a term or an operand of ``\\/``, ``+`` or
  ``-`` (not one of ``*``, ``/`` or ``^``), and covers the product after
  it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

KEYWORDS = frozenset({"box", "provided", "use", "end"})
REL_OPS = frozenset({"=", ">", "<", ">=", "<=", "!="})

# Token kinds.
KEYWORD = "keyword"
IDENT = "identifier"
VARIABLE = "variable"
ENV_VARIABLE = "env-variable"
ANON_VARIABLE = "anon-variable"
NUMBER = "number"
RELOP = "relop"
ARROW = "arrow"          # "->" and "=>"
EQUIVOP = "equivops"     # ":=:"
PUNCT = "punct"          # ( ) { } , ; :
INFIX = "infix-sign"     # + - * / ^ \/
COMBINATOR = "combinator"  # .. and |, in network expressions only
EOF = "eof"

# A term may nest this many levels deep as written: each bracket, head
# argument list, unary sign, binary operator and network parenthesis adds
# one.  Walking such a term recursively takes a few hundred frames at
# most, well under Python's default limit of 1000.
MAX_TERM_DEPTH = 200


class Pos(NamedTuple):
    line: int
    col: int

    def __str__(self):
        return f"line {self.line}, column {self.col}"


_new = tuple.__new__  # builds a Pos or Token without the keyword-argument __new__


class Token(NamedTuple):
    kind: str
    text: str
    # The position of the first character, kept flat so that a token is one
    # tuple; ``pos`` builds the Pos.
    line: int
    col: int
    # NUMBER tokens carry their Fraction, variable tokens (name, dollars).
    value: object = None

    @property
    def pos(self) -> Pos:
        return _new(Pos, (self.line, self.col))

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


class CalSyntaxError(Exception):
    """Lexical or syntax error with a position into the original source."""

    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# Each match is a run of whitespace, possibly empty, and one token: a
# comment, a name, a number, a variable, a multi-character operator, or
# any other single character, which the operator table or an error
# covers.  \s, \w and \d are Unicode classes: \s is str.isspace, \w is
# str.isalnum or "_", and \d is the decimal digits that int() accepts.
# A name starts with a letter (str.isalpha) or "_"; [^\W\d] also admits
# digits and numerals that are not decimal, such as "²", which tokenize
# rejects there.  Every match starts where the previous one ended, so
# splitting on this expression gives an empty string, the whitespace and the
# token of each match in turn.  The text is cut after its last token first:
# whitespace with no token after it matches nothing, and the scan would
# retry it from every offset.
_TOKEN_RE = re.compile(r"""
    (\s*)
    (   --[^\n]*
      | [^\W\d]\w*
      | \d+(?:/\d+)?
      | \$\$?[^\W\d]\w*
      | :=: | [-=]> | [<>!]= | \\/ | \.\.
      | \S
    )""", re.VERBOSE)

_OPERATOR_KIND = {
    ":=:": EQUIVOP, "->": ARROW, "=>": ARROW,
    **dict.fromkeys(REL_OPS, RELOP),
    **dict.fromkeys(("+", "-", "*", "/", "^", "\\/"), INFIX),
    **dict.fromkeys("(){},;:", PUNCT),
}
# Network expressions add the combinators and the cost brackets.
_NET_OPERATOR_KIND = {**_OPERATOR_KIND, "..": COMBINATOR, "|": COMBINATOR, "[": PUNCT, "]": PUNCT}

# Python's int() and str() refuse integers of more than 4,300 decimal
# digits (the default int/str conversion limit).  A number literal may
# have no more, and every number that is written out stays within it.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_DIGITS


def writable(value: Union[int, Fraction]) -> bool:
    """Whether the numerator and the denominator of ``value`` each have at
    most ``MAX_DIGITS`` digits, so that it can be written out."""
    return abs(value.numerator) < _DIGITS_BOUND and value.denominator < _DIGITS_BOUND


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _classify(text: str, operators: dict[str, str], line: int, col: int) -> tuple:
    """The kind and value of a token spelled ``text``, or ``(None, None)``
    for a comment; a text that is no token raises at ``line``, ``col``."""
    kind = operators.get(text)
    if kind is not None:
        return kind, None
    c = text[0]
    if c == "$":
        dollars = 2 if text[1:2] == "$" else 1
        name = text[dollars:]
        if not name or not _is_name_start(name[0]):
            raise CalSyntaxError("'$' must be followed by a letter or underscore", Pos(line, col))
        if dollars == 2:
            kind = ENV_VARIABLE
        elif name == "_":
            kind = ANON_VARIABLE
        else:
            kind = VARIABLE
        return kind, (name, dollars)
    if _is_name_start(c):
        return KEYWORD if text in KEYWORDS else IDENT, None
    if c.isdecimal():
        num, _, den = text.partition("/")
        if max(len(num), len(den)) > MAX_DIGITS:
            raise CalSyntaxError(f"number literal with more than {MAX_DIGITS} digits",
                                 Pos(line, col))
        if den and int(den) == 0:
            raise CalSyntaxError(f"rational literal {text!r} has a zero denominator",
                                 Pos(line, col))
        return NUMBER, Fraction(int(num), int(den or 1))
    if c == "-":
        return None, None  # a comment
    if c == "\\":
        raise CalSyntaxError("stray '\\' (the only backslash token is '\\/')", Pos(line, col))
    raise CalSyntaxError(f"unexpected character {c!r}", Pos(line, col))


def tokenize(source: str, start: Pos = Pos(1, 1),
             operators: dict[str, str] = _OPERATOR_KIND) -> list[Token]:
    """Split CAL source text into tokens.

    Every character belongs to exactly one token, whitespace run or
    ``--`` comment; anything else raises :class:`CalSyntaxError` with
    its position.  ``start`` is the position of the first character, for
    text cut from a larger file; ``operators`` maps each operator to its
    kind.
    """
    tokens: list[Token] = []
    append = tokens.append
    # Each distinct text is classified once, where it first occurs, so the
    # first text that is no token raises first.
    classes: dict[str, tuple] = {}
    line, line_start, offset = start.line, 1 - start.col, 0  # line_start: offset of column 1
    parts = _TOKEN_RE.split(source[:len(source.rstrip())])
    for space, text in zip(parts[1::3], parts[2::3]):
        if space:
            if "\n" in space:
                line += space.count("\n")
                line_start = offset + space.rindex("\n") + 1
            offset += len(space)
        col = offset - line_start + 1
        offset += len(text)
        cls = classes.get(text)
        if cls is None:
            cls = classes[text] = _classify(text, operators, line, col)
        kind, value = cls
        if kind is not None:
            append(_new(Token, (kind, text, line, col, value)))
    rest = source[offset:]  # whitespace after the last token
    if "\n" in rest:
        line += rest.count("\n")
        line_start = offset + rest.rindex("\n") + 1
    append(_new(Token, (EOF, "", line, len(source) - line_start + 1, None)))
    return tokens


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------
#
# Positions never take part in structural equality: the round-trip law
# compares a tree parsed from the original text with one parsed from its
# rendering, and those differ in layout only.

@dataclass(frozen=True, slots=True)
class NumberLit:
    value: Fraction


@dataclass(frozen=True, slots=True)
class Name:
    """An identifier used as a symbol."""
    text: str


@dataclass(frozen=True, slots=True)
class VarRef:
    name: str
    dollars: int  # 1 = object/local/anonymous, 2 = environment


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "+" or "-"
    operand: "SurfaceTerm"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # one of + - * / ^ \/
    lhs: "SurfaceTerm"
    rhs: "SurfaceTerm"


@dataclass(frozen=True, slots=True)
class TupleLit:
    members: tuple["SurfaceTerm", ...]


@dataclass(frozen=True, slots=True)
class HeadTuple:
    """Head-extraction sugar: ``head(a, b)``."""
    head: str
    args: tuple["SurfaceTerm", ...]


@dataclass(frozen=True, slots=True)
class SetLit:
    members: tuple["SurfaceTerm", ...]


SurfaceTerm = Union[NumberLit, Name, VarRef, Unary, Binary, TupleLit, HeadTuple, SetLit]


@dataclass(frozen=True, slots=True)
class SurfacePredicate:
    """A relation, or with ``op`` ``":=:"`` an equivalence."""
    lhs: SurfaceTerm
    op: str
    rhs: SurfaceTerm


@dataclass(frozen=True, slots=True)
class SurfaceClause:
    conditions: tuple[SurfacePredicate, ...]
    assertions: tuple[SurfacePredicate, ...]
    pos: Pos = field(compare=False)


@dataclass(frozen=True, slots=True)
class ProvidedBlock:
    conditions: tuple[SurfacePredicate, ...]
    body: tuple["SurfaceDecl", ...]
    pos: Pos = field(compare=False)


SurfaceDecl = Union[SurfaceClause, ProvidedBlock]


@dataclass(frozen=True, slots=True)
class Header:
    name: str
    inputs: Optional[tuple[str, ...]]  # None when the input tuple is omitted
    outputs: tuple[tuple[str, ...], ...]
    pos: Pos = field(compare=False)


@dataclass(frozen=True, slots=True)
class Declaration:
    header: Header
    decls: tuple[SurfaceDecl, ...]


class NetBox(NamedTuple):
    name: str
    pos: Pos


class NetSerial(NamedTuple):
    stages: tuple["NetSurface", ...]
    comms: tuple[Optional[SurfaceTerm], ...]  # per edge: the term of "..[term]", or None


class NetParallel(NamedTuple):
    branches: tuple["NetSurface", ...]


NetSurface = Union[NetBox, NetSerial, NetParallel]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# How tightly each operator binds, for parsing and rendering alike.  Every
# binary operator is left-associative; a unary sign binds between the
# additive and the multiplicative operators.
_BINARY_PREC = {"\\/": 1, "+": 2, "-": 2, "*": 4, "/": 4, "^": 5}
_UNARY_PREC = 3


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.tok = tokens[0]  # the current token, tokens[i]
        # Nesting of the term being parsed: open brackets, argument lists
        # and signs around the current token, and the depth as written of
        # the term parsed last.  Their sum never exceeds MAX_TERM_DEPTH.
        self.depth = 0
        self.height = 0

    def next(self) -> Token:
        t = self.tok
        if t.kind != EOF:
            self.i += 1
            self.tok = self.tokens[self.i]
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None, what: Optional[str] = None) -> Token:
        if self.at(kind, text):
            return self.next()
        t = self.tok
        wanted = what or (text if text is not None else kind)
        found = t.text or "end of input"
        raise CalSyntaxError(f"expected {wanted!r}, found {found!r}", t.pos)

    def fail(self, message: str):
        raise CalSyntaxError(message, self.tok.pos)

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
        start = self.tok.pos
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
        while self.tok.text == ",":  # only punctuation is spelled ","
            self.next()
            preds.append(self.predicate())
        return preds

    def predicate(self) -> SurfacePredicate:
        first = self.tok
        lhs = self.expression()
        if self.tok.kind not in (RELOP, EQUIVOP):
            self.fail("expected a relational operator or ':=:'")
        op = self.next().text
        if op != ":=:" and not isinstance(lhs, (VarRef, NumberLit)):
            raise CalSyntaxError(
                "the left-hand side of a relation must be a variable or a number", first.pos)
        return SurfacePredicate(lhs, op, self.expression())

    def expression(self, min_prec: int = 0) -> SurfaceTerm:
        """A term whose binary operators bind at ``min_prec`` or tighter;
        all of them associate to the left.

        A sign may start an operand that binds at ``_UNARY_PREC`` or
        looser, and covers the product after it: ``-x^2`` is ``-(x^2)``.
        """
        tok = self.tok
        if tok.kind == INFIX and tok.text in ("+", "-") and min_prec <= _UNARY_PREC:
            self.open()
            operand = self.expression(_UNARY_PREC)
            self.depth -= 1
            self.height += 1
            if tok.text == "+":
                term = operand
            elif isinstance(operand, NumberLit):
                term = NumberLit(-operand.value)
            else:
                term = Unary("-", operand)
        else:
            term = self.primary()
        while True:
            tok = self.tok
            if tok.kind != INFIX:
                return term
            prec = _BINARY_PREC[tok.text]
            if prec < min_prec:
                return term
            self.next()
            height = self.height
            rhs = self.expression(prec + 1)
            height = max(height, self.height) + 1
            if self.depth + height > MAX_TERM_DEPTH:
                self.too_deep(tok)
            self.height = height
            term = Binary(tok.text, term, rhs)

    def primary(self) -> SurfaceTerm:
        t = self.tok
        kind = t.kind
        if kind == NUMBER:
            self.next()
            self.height = 0
            return NumberLit(t.value)
        if kind == VARIABLE or kind == ENV_VARIABLE or kind == ANON_VARIABLE:
            self.next()
            self.height = 0
            return VarRef(*t.value)
        if kind == IDENT:
            self.next()
            if self.at(PUNCT, "("):
                self.open()
                args = self.term_list()
                self.close(")")
                return HeadTuple(t.text, args)
            self.height = 0
            return Name(t.text)
        if kind == PUNCT and t.text == "(":
            self.open()
            members = self.term_list()
            self.close(")")
            # One member is plain grouping.
            return members[0] if len(members) == 1 else TupleLit(members)
        if kind == PUNCT and t.text == "{":
            self.open()
            if self.at(PUNCT, "}"):
                members = ()
                self.height = 0
            else:
                members = self.term_list()
            self.close("}")
            return SetLit(members)
        self.fail(f"expected a term, found {t.text!r}" if t.text else "expected a term")

    def term_list(self) -> tuple[SurfaceTerm, ...]:
        """One or more comma-separated terms; ``height`` becomes the
        greatest of theirs."""
        terms = [self.expression()]
        height = self.height
        while self.tok.text == ",":  # only punctuation is spelled ","
            self.next()
            terms.append(self.expression())
            height = max(height, self.height)
        self.height = height
        return tuple(terms)

    def open(self):
        """Consume a bracket or sign that nests what follows one level deeper."""
        self.depth += 1
        if self.depth > MAX_TERM_DEPTH:
            self.too_deep(self.tok)
        self.next()

    def close(self, bracket: str):
        """Consume the closing bracket of the innermost open level."""
        self.expect(PUNCT, bracket)
        self.depth -= 1
        self.height += 1

    # -- network expressions ---------------------------------------------

    def net_definition(self) -> tuple[str, NetSurface]:
        self.expect(IDENT, "net")
        name = self.expect(IDENT, what="network name").text
        self.expect(RELOP, "=")
        return name, self.network()

    def network(self) -> NetSurface:
        """``network := chain ('|' chain)*``"""
        branches = [self.chain()]
        while self.accept(COMBINATOR, "|"):
            branches.append(self.chain())
        return branches[0] if len(branches) == 1 else NetParallel(tuple(branches))

    def chain(self) -> NetSurface:
        """``chain := stage ('..' ['[' term ']'] stage)*``"""
        stages = [self.stage()]
        comms: list[Optional[SurfaceTerm]] = []
        while self.accept(COMBINATOR, ".."):
            comm = None
            if self.at(PUNCT, "["):
                self.open()
                comm = self.expression()
                self.close("]")
            comms.append(comm)
            stages.append(self.stage())
        return stages[0] if len(stages) == 1 else NetSerial(tuple(stages), tuple(comms))

    def stage(self) -> NetSurface:
        """``stage := IDENT | '(' network ')'``"""
        t = self.tok
        if t.kind == IDENT:
            self.next()
            return NetBox(t.text, t.pos)
        if t.kind == PUNCT and t.text == "(":
            self.open()
            e = self.network()
            self.close(")")
            return e
        self.fail(f"expected a box name, found {t.text!r}" if t.text else "expected a box name")

    def too_deep(self, tok: Token):
        raise CalSyntaxError(f"term nested too deeply (more than {MAX_TERM_DEPTH} levels)",
                             tok.pos)


def _parse_all(source, rule):
    """Apply the parser method ``rule`` to all of ``source``, text or tokens."""
    p = _Parser(tokenize(source) if isinstance(source, str) else list(source))
    result = rule(p)
    p.expect(EOF, what="end of input")
    return result


def parse_program(source) -> tuple[Declaration, ...]:
    """Parse a whole file: zero or more box declarations."""
    return _parse_all(source, _Parser.program)


def parse_declaration(source) -> Declaration:
    """Parse exactly one box declaration."""
    return _parse_all(source, _Parser.declaration)


def parse_term(source) -> SurfaceTerm:
    """Parse a single term (no trailing input allowed)."""
    return _parse_all(source, _Parser.expression)


def parse_predicate(source) -> SurfacePredicate:
    return _parse_all(source, _Parser.predicate)


def parse_network(source: str, start: Pos) -> tuple[str, NetSurface]:
    """Parse a network definition ``net NAME = EXPR``; ``start`` is the
    position of its first character in the file."""
    return _parse_all(tokenize(source, start, _NET_OPERATOR_KIND), _Parser.net_definition)


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------

def render_term(t: SurfaceTerm, prec: int = 0) -> str:
    """Render a surface term, inserting parentheses only where needed."""
    kind = type(t)
    if kind is NumberLit:
        text = str(t.value)
        # A negative literal needs protection in operand position.
        if t.value < 0 and prec > 0:
            return f"({text})"
        return text
    if kind is Name:
        return t.text
    if kind is VarRef:
        return "$" * t.dollars + t.name
    if kind is Unary:
        # A sign directly on a sign gets parentheses: "--" starts a comment.
        inner = render_term(t.operand, _UNARY_PREC + 1)
        text = f"{t.op}{inner}"
        return f"({text})" if prec > _UNARY_PREC else text
    if kind is Binary:
        # The operators of one level down the left spine need no
        # parentheses; a loop walks them, as a long chain is deep.
        level = _BINARY_PREC[t.op]
        spine = []
        while type(t) is Binary and _BINARY_PREC[t.op] == level:
            spine.append(t)
            t = t.lhs
        parts = [render_term(t, level)]
        for b in reversed(spine):
            parts.append(f" {b.op} {render_term(b.rhs, level + 1)}")
        text = "".join(parts)
        return f"({text})" if prec > level else text
    if kind is TupleLit:
        return "(" + ", ".join([render_term(m) for m in t.members]) + ")"
    if kind is HeadTuple:
        return t.head + "(" + ", ".join([render_term(a) for a in t.args]) + ")"
    if kind is SetLit:
        return "{" + ", ".join([render_term(m) for m in t.members]) + "}"
    raise TypeError(f"not a surface term: {t!r}")


def render_predicate(p: SurfacePredicate) -> str:
    return f"{render_term(p.lhs)} {p.op} {render_term(p.rhs)}"


def _render_decl(d: SurfaceDecl, indent: str) -> str:
    if isinstance(d, SurfaceClause):
        conds = ", ".join(render_predicate(p) for p in d.conditions)
        asserts = ", ".join(render_predicate(p) for p in d.assertions)
        lead = f"{conds} " if conds else ""
        return f"{indent}{lead}=> {asserts};"
    conds = ", ".join(render_predicate(p) for p in d.conditions)
    lines = [f"{indent}provided {conds} use"]
    for inner in d.body:
        lines.append(_render_decl(inner, indent + "  "))
    lines.append(f"{indent}end;")
    return "\n".join(lines)


def render_declaration(decl: Declaration) -> str:
    """Render a declaration in the canonical header form."""
    h = decl.header
    inputs = "" if h.inputs is None else "(" + ",".join(h.inputs) + ")"
    outputs = ", ".join("(" + ",".join(fields) + ")" for fields in h.outputs)
    lines = [f"box {h.name} ({inputs} -> {outputs}):"]
    for d in decl.decls:
        lines.append(_render_decl(d, "  "))
    return "\n".join(lines)


def render(decls) -> str:
    """Render one declaration or a sequence of them back to CAL text."""
    if isinstance(decls, Declaration):
        return render_declaration(decls)
    return "\n\n".join(render_declaration(d) for d in decls)
