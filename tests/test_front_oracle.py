"""Differential tests: :mod:`calang.syntax` against the reference front end
in ``reference_front.py`` (character-by-character lexer, one parser method
per precedence level), on generated CAL text.

The generator writes box declarations token by token, separates the
tokens with whitespace, Unicode whitespace and comments, and may replace,
insert or delete tokens with stray characters, Unicode letters and digits.
Both front ends must give the same tokens, the same trees with the same
header and clause positions, or the same error at the same position.

Network expressions are compared with the reference's network parser on
generated expressions: both must give the same box instances in the same
order, the same connections and the same aggregated costs.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_front as ref
from calang import syntax
from calang.aggregate import (
    aggregate_extrafunctional,
    build_connections,
    parse_network_file,
)
from calang.clauses import evaluate_box, flatten_provided
from calang.terms import VarSupply, term_text
from calang.unify import BindingStore

# -- generator -------------------------------------------------------------

LEAVES = ["0", "7", "12", "3/2", "10/4", "a", "b2", "nil", "é", "naïve", "Ωmega", "x_1",
          "$x", "$y", "$$n", "$_", "$_y", "$é"]
BINARY = ["+", "-", "*", "/", "^", "\\/"]
RELATIONS = ["=", ">", "<", ">=", "<=", "!="]
HEADS = ["f", "shape", "Type", "value", "ñ"]
FIELDS = ["a", "b", "k", "é"]


def _join(parts: list[list[str]], sep: str) -> list[str]:
    out: list[str] = []
    for i, p in enumerate(parts):
        if i:
            out.append(sep)
        out.extend(p)
    return out


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(BINARY), children).map(
            lambda t: t[0] + [t[1]] + t[2]),
        st.tuples(st.sampled_from(["-", "+"]), children).map(lambda t: [t[0]] + t[1]),
        st.lists(children, min_size=1, max_size=3).map(
            lambda ms: ["("] + _join(ms, ",") + [")"]),
        st.tuples(st.sampled_from(HEADS), st.lists(children, min_size=1, max_size=3)).map(
            lambda t: [t[0], "("] + _join(t[1], ",") + [")"]),
        st.lists(children, max_size=3).map(lambda ms: ["{"] + _join(ms, ",") + ["}"]),
    )


TERMS = st.recursive(st.sampled_from(LEAVES).map(lambda t: [t]), _compound, max_leaves=6)

# A relation's left-hand side must be a variable or a number.
RELATION_LHS = st.sampled_from([["$x"], ["$$n"], ["$_"], ["7"], ["3/2"], ["$é"], ["-", "5"],
                                ["(", "$x", ")"]])
PREDICATES = st.one_of(
    st.tuples(RELATION_LHS, st.sampled_from(RELATIONS), TERMS).map(
        lambda t: t[0] + [t[1]] + t[2]),
    st.tuples(TERMS, TERMS).map(lambda t: t[0] + [":=:"] + t[1]),
)
PREDICATE_LISTS = st.lists(PREDICATES, min_size=1, max_size=2).map(lambda ps: _join(ps, ","))

CLAUSES = st.tuples(st.one_of(st.just([]), PREDICATE_LISTS), PREDICATE_LISTS).map(
    lambda t: t[0] + ["=>"] + t[1])


def _decls(depth: int, min_size: int = 0):
    entry = CLAUSES
    if depth > 0:
        entry = st.one_of(CLAUSES, st.tuples(PREDICATE_LISTS, _decls(depth - 1)).map(
            lambda t: ["provided"] + t[0] + ["use"] + t[1] + ["end"]))
    return st.lists(entry, min_size=min_size, max_size=2).map(
        lambda es: [tok for e in es for tok in e + [";"]])


FIELD_TUPLES = st.lists(st.sampled_from(FIELDS), max_size=3).map(
    lambda fs: ["("] + _join([[f] for f in fs], ",") + [")"])
HEADERS = st.tuples(
    st.sampled_from(["B", "MYBOX", "Ünit"]), st.one_of(st.just([]), FIELD_TUPLES),
    st.lists(FIELD_TUPLES, max_size=2), st.booleans(),
).map(lambda t: (["box", t[0], "(", *t[1], "->", *_join(t[2], ","), ")", ":"] if t[3]
                 else ["box", t[0], ":", *t[1], "=>", *_join(t[2], ",")]))

PROGRAMS = st.lists(st.tuples(HEADERS, _decls(2, min_size=1)).map(lambda t: t[0] + t[1]),
                    min_size=1, max_size=2).map(lambda ds: [tok for d in ds for tok in d])

# Only "\n" ends a line; "\x85" and "\u2028" are whitespace within one.
SEPARATORS = st.sampled_from([" ", " ", "\n", "\t", "  \n  ", "\r\n", "\x0c", "\x85", "\u00a0",
                              "\u2003", "\u2028", "\u3000", " -- a comment, é ² \\ $\n", "--\n"])
NOISE = st.sampled_from(["\\", "\\plus", "!", "$", "$$", "$1", "$$$a", "²", "½", "x²", "٣",
                         "1²", "@", "#", "\x00", "€", "é", "5/0", "3/00", "-", "--", "->",
                         ":=", ":", "=", "\u00a0", "\n", ")", "(", "{", "box", "end", ";",
                         "..", "|", "[", "]"])


@st.composite
def texts(draw, mutate: bool = True) -> str:
    """A program's tokens joined by separators; when ``mutate``, a few
    tokens may be replaced, dropped or joined by noise first."""
    tokens = list(draw(PROGRAMS))
    if mutate:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(tokens)))
            action = draw(st.sampled_from(["insert", "replace", "delete"]))
            if action == "insert" or i == len(tokens):
                tokens.insert(i, draw(NOISE))
            elif action == "replace":
                tokens[i] = draw(NOISE)
            else:
                del tokens[i]
    seps = draw(st.lists(SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


SOUP = st.lists(st.one_of(st.sampled_from(LEAVES + BINARY + RELATIONS), NOISE, SEPARATORS),
                max_size=30).map("".join)
ANY_TEXT = st.one_of(texts(), texts(mutate=False), SOUP)


# -- comparison ------------------------------------------------------------

def _pos(p) -> tuple[int, int]:
    return (p.line, p.col)


def _outcome(fn, text: str, shape):
    try:
        return ("ok", shape(fn(text)))
    except syntax.CalSyntaxError as e:
        return ("error", e.message, _pos(e.pos))


def _token_rows(tokens):
    return [(t.kind, t.text, _pos(t.pos), t.value) for t in tokens]


def _positions(decls) -> list[tuple[int, int]]:
    out = []

    def walk(ds):
        for d in ds:
            out.append(_pos(d.pos))
            if isinstance(d, syntax.ProvidedBlock):
                walk(d.body)

    for d in decls:
        out.append(_pos(d.header.pos))
        walk(d.decls)
    return out


def _tree(decls):
    return decls, _positions(decls)


@settings(max_examples=100, deadline=None)
@given(ANY_TEXT)
def test_tokens_agree_with_reference(text):
    assert (_outcome(syntax.tokenize, text, _token_rows)
            == _outcome(ref.tokenize, text, _token_rows))


@settings(max_examples=100, deadline=None)
@given(ANY_TEXT)
def test_trees_and_errors_agree_with_reference(text):
    assert (_outcome(syntax.parse_program, text, _tree)
            == _outcome(ref.parse_program, text, _tree))


@settings(max_examples=100, deadline=None)
@given(st.tuples(TERMS, SEPARATORS).map(lambda t: t[1].join(t[0])))
def test_terms_agree_with_reference(text):
    assert (_outcome(syntax.parse_term, text, lambda t: t)
            == _outcome(ref.parse_term, text, lambda t: t))


@settings(max_examples=60, deadline=None)
@given(texts(mutate=False))
def test_render_round_trip(text):
    try:
        decls = syntax.parse_program(text)
    except syntax.CalSyntaxError:
        return  # the generator writes some ill-formed terms, such as "a * -b"
    assert syntax.parse_program(syntax.render(decls)) == decls


# -- network expressions ---------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
NET_NAMES = st.sampled_from(["A", "B", "C", "P"])
NET_COSTS = st.sampled_from(["", "", "[hop]", "[2]", "[$x * 2]", "[- - $x]",
                             "[{} \\/ $w]", "[1/2 + $$n]"])
NET_SPACES = st.sampled_from(["", " ", "  ", "\t"])
MAX_NET_PARENS = 20


@st.composite
def net_texts(draw, depth: int = 0) -> str:
    """Names joined by ``..`` (with or without a cost) and ``|``; a stage
    may be a parenthesised expression, wrapped in up to
    ``MAX_NET_PARENS`` parentheses in all."""
    def stage() -> str:
        if depth < MAX_NET_PARENS and draw(st.integers(0, 4)) == 0:
            k = draw(st.integers(1, MAX_NET_PARENS - depth))
            return "(" * k + draw(net_texts(depth + k)) + ")" * k
        return draw(NET_NAMES)

    def sep() -> str:
        return draw(NET_SPACES)

    chains = []
    for _ in range(draw(st.integers(1, 2))):
        chain = stage()
        for _ in range(draw(st.integers(0, 2))):
            chain += sep() + ".." + draw(NET_COSTS) + sep() + stage()
        chains.append(chain)
    return (sep() + "|" + sep()).join(chains)


def _net_summary(instances, connections, costs):
    """Instance names in order, connections by name and aggregated costs;
    each box is evaluated on its own, since its clause has no condition."""
    store = BindingStore()
    for inst in instances:
        (branch,) = evaluate_box(inst.decl, store).branches
        store = branch.store
    model = costs(store)
    return ([i.name for i in instances],
            [(u.name, d.name, [(a.name, b.name) for a, b in pairs])
             for u, d, pairs in connections],
            [(term_text(t), term_text(m)) for t, m in model])


@settings(max_examples=100, deadline=None)
@given(net_texts())
def test_networks_agree_with_reference(text):
    (net,) = parse_network_file(f"use relays.cal\nnet m = {text}\n",
                                base_dir=FIXTURES)
    got = _net_summary(net.instances(),
                       [(c.upstream, c.downstream, c.pairs) for c in build_connections(net)],
                       lambda store: aggregate_extrafunctional(net.expr, store))
    library = {}
    for decl in syntax.parse_program((FIXTURES / "relays.cal").read_text()):
        flattened = flatten_provided(decl)
        library[flattened.name] = flattened
    expr = ref._NetExprParser(text, library, VarSupply("i"), {}).parse()
    want = _net_summary(ref.instances(expr), ref.connections(expr),
                        lambda store: ref.aggregate_extrafunctional(expr, store))
    assert got == want
