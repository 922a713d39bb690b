"""Acceptance suite: one test per criterion, one pass/fail line each.

Every expectation here is either verbatim from the worked example, an
independent oracle (brute-force ground enumeration, big-integer
arithmetic, exhaustive interval products), or a structural property.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from calang import syntax
from calang.arith import DIVISION_BY_ZERO, PredicateFailure, eval_numeric
from calang.aggregate import instance_input_store
from calang.clauses import evaluate_box, parse_box
from calang.cli import _store_table, main as cli_main
from calang.horn import to_horn
from calang.terms import (
    HAT,
    LOCAL,
    MINUS,
    PLUS,
    SLASH,
    TIMES,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    desugar,
    iter_vars,
    term_text,
)
from calang.unify import (
    BindingStore,
    is_instance_of,
    resolve,
    unify_sets,
    _relevant_vars,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(n, text):
    print(f"\n[criterion {n}] PASS - {text}")


def term(text):
    return desugar(syntax.parse_term(text))


# ---------------------------------------------------------------------------
# 1. MYBOX fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_mybox_fidelity():
    started = time.monotonic()
    source = (FIXTURES / "mybox.cal").read_text()

    def inputs(box, k):
        return instance_input_store(box, (box.name,), {
            (box.name, "$a"): term("{Type(array, element(real), rank(2),"
                                   " shape(7,(7,nil))), packed(row_major)}"),
            (box.name, "$k"): term("{value(%d), Type(int)}" % k),
            (None, "$$nthreads"): Num(Fraction(4))})

    box = parse_box(source)
    ev = evaluate_box(box, inputs(box, 500))
    assert len(ev.branches) == 1
    br = ev.branches[0]
    b_val = resolve(box.object_vars["b"], br.store)
    assert b_val == term("{Type(array, element(real), shape(8,(7,nil))), rank(2)}")
    d_val = resolve(box.object_vars["d"], br.store)
    assert d_val == term("{Type(array, element(real), shape(8,(7,nil))), rank(3)}")
    t0 = resolve(box.env_vars["T0"], br.store)
    assert t0 == Tup((Sym(SLASH),
                      Tup((Sym(TIMES), Num(Fraction(7)),
                           Tup((Sym("log"), Num(Fraction(7)))))),
                      Num(Fraction(4))))
    assert resolve(box.env_vars["T1"], br.store) == Num(Fraction(1))
    assert 3 not in br.fired  # clause 4 did not fire

    box2 = parse_box(source)
    ev2 = evaluate_box(box2, inputs(box2, 100))
    (br2,) = ev2.branches
    assert resolve(box2.env_vars["T1"], br2.store) == Tup(
        (Sym(HAT), Num(Fraction(7)), Num(Fraction(3, 2))))
    assert resolve(box2.env_vars["M1"], br2.store) == Num(Fraction(0))
    assert 2 not in br2.fired  # clause 3 did not fire

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"worked example evaluates exactly as stated ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Unification oracle equivalence
# ---------------------------------------------------------------------------

A, B, C = Sym("a"), Sym("b"), Sym("c")
X = Var(("u", 0), "x", LOCAL)
Y = Var(("u", 1), "y", LOCAL)
V = Var(("u", 2), "v", LOCAL)

ELEMENT_POOL = [A, B, C, X, Y, Tup((A, X)), Tup((B, Y))]
GROUND_INDIVIDUALS = [A, B, C, Tup((A, A))]
GROUND_SETS = [frozenset(s) for k in range(len(GROUND_INDIVIDUALS) + 1)
               for s in itertools.combinations(GROUND_INDIVIDUALS, k)]


def pair_universe():
    """Exhaustive set terms over 3 symbols, 2 element variables, 1 union
    variable, depth 2: every subset of the element pool up to two
    members, with and without the union variable."""
    terms = []
    for k in range(3):
        for elems in itertools.combinations(ELEMENT_POOL, k):
            terms.append(SetTerm(elems))
            terms.append(SetTerm(elems, [V]))
    return terms


def ground_individual(t, env):
    if isinstance(t, Var):
        return env[t]
    if isinstance(t, Tup):
        return Tup(tuple(ground_individual(m, env) for m in t.members))
    return t


def ground_set_value(st, env):
    out = set()
    for e in st.elements:
        out.add(ground_individual(e, env))
    for u in st.union_vars:
        out |= env[u]
    return frozenset(out)


def test_criterion_2_unification_oracle_equivalence():
    started = time.monotonic()
    terms = pair_universe()
    pairs = [(t1, t2) for t1 in terms for t2 in terms]
    assert len(pairs) >= 2000  # several thousand

    checked_solutions = 0
    checked_ground = 0
    for t1, t2 in pairs:
        base = BindingStore()
        solutions = unify_sets(t1, t2, base)
        rvars = _relevant_vars([t1, t2], base)

        # soundness: both operands resolve to the same set
        for s in solutions:
            assert resolve(t1, s) == resolve(t2, s), (
                f"unsound solution for {term_text(t1)} ~ {term_text(t2)}")
        checked_solutions += len(solutions)
        generals = [[resolve(r, s) for r in rvars] for s in solutions]
        # ground solutions admit exactly one instance; match those by
        # plain equality and keep the pattern matcher for the rest
        ground_keys = {tuple(g) for g in generals if all(t.ground for t in g)}
        patterns = [g for g in generals if not all(t.ground for t in g)]

        # completeness: every ground unifier is an instance of a solution
        pair_vars = list(dict.fromkeys([*iter_vars(t1), *iter_vars(t2)]))
        elem_vars = [u for u in pair_vars if u != V]
        has_v = V in pair_vars
        seen = set()
        for elems in itertools.product(GROUND_INDIVIDUALS, repeat=len(elem_vars)):
            for vset in (GROUND_SETS if has_v else [None]):
                env = dict(zip(elem_vars, elems))
                if has_v:
                    env[V] = vset
                if ground_set_value(t1, env) != ground_set_value(t2, env):
                    continue
                vec = tuple(SetTerm(sorted(env[r], key=repr)) if r == V else env[r]
                            for r in rvars)
                if vec in seen:
                    continue
                seen.add(vec)
                checked_ground += 1
                assert vec in ground_keys or any(
                    is_instance_of(list(vec), g) for g in patterns), (
                    f"ground unifier not covered for {term_text(t1)} ~ "
                    f"{term_text(t2)}: {[term_text(x) for x in vec]}")

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(2, f"{len(pairs)} pairs, {checked_solutions} solutions sound, "
              f"{checked_ground} ground unifiers covered ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Horn count property
# ---------------------------------------------------------------------------

def test_criterion_3_horn_counts():
    rng = random.Random(3301)
    for _ in range(200):
        k = rng.randint(1, 5)
        m = rng.randint(0, 4)
        conds = ", ".join(f"$x > {rng.randint(0, 9)}" for _ in range(m))
        asserts = ", ".join(f"$y != {rng.randint(0, 9)}" for _ in range(k))
        box = parse_box(f"box b ((x) -> (y)): {conds} => {asserts};")
        hcs = to_horn(box.clauses[0])
        assert len(hcs) == k
        assert all(len(hc.body) == m for hc in hcs)
        assert all(hc.body == hcs[0].body for hc in hcs)
    report(3, "200 random clauses expand to k Horn clauses with m-literal bodies")


# ---------------------------------------------------------------------------
# 4. Rational exactness
# ---------------------------------------------------------------------------

def big_int_field_op(op, an, ad, bn, bd):
    """Independent oracle on raw integer pairs with its own reduction."""
    if op == "+":
        n, d = an * bd + bn * ad, ad * bd
    elif op == "-":
        n, d = an * bd - bn * ad, ad * bd
    elif op == "*":
        n, d = an * bn, ad * bd
    else:
        if bn == 0:
            return None
        n, d = an * bd, ad * bn
    if d < 0:
        n, d = -n, -d
    g = gcd(abs(n), d) or 1
    return (n // g, d // g)


def test_criterion_4_rational_exactness():
    ops = {"+": PLUS, "-": MINUS, "*": TIMES, "/": SLASH}
    rng = random.Random(4404)
    zero_divisions = 0
    for i in range(10_000):
        op = rng.choice("+-*/")
        an, ad = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        if op == "/" and i % 50 == 0:
            bn, bd = 0, 1  # force the singularity regularly
        else:
            bn, bd = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        t = Tup((Sym(ops[op]), Num(Fraction(an, ad)), Num(Fraction(bn, bd))))
        got = eval_numeric(t)
        want = big_int_field_op(op, an, ad, bn, bd)
        if want is None:
            zero_divisions += 1
            assert isinstance(got, PredicateFailure)
            assert got.reason == DIVISION_BY_ZERO
        else:
            assert isinstance(got, Fraction)
            assert (got.numerator, got.denominator) == want
    assert zero_divisions > 0
    report(4, f"10000 field operations bit-exact against the big-integer oracle, "
              f"{zero_divisions} zero divisors all failed as division-by-zero")


# ---------------------------------------------------------------------------
# 5. Pipeline propagation
# ---------------------------------------------------------------------------

def test_criterion_5_pipeline_propagation(capsys):
    env = str(FIXTURES / "pipeline.env")

    code = cli_main(["aggregate", "--net", str(FIXTURES / "pipeline.net"),
                     "--env", env])
    out = capsys.readouterr().out
    assert code == 0
    assert "B: $q = {value(8), doubled}" in out  # upstream assertion arrived

    code = cli_main(["aggregate", "--net", str(FIXTURES / "pipeline_noassert.net"),
                     "--env", env])
    out = capsys.readouterr().out
    assert code == 0  # warnings do not fail the run
    assert "status: warnings" in out
    assert "B: fired clauses = (none)" in out
    report(5, "upstream assertion reaches downstream; removing it leaves the "
              "downstream box unfired with a warning and exit status 0")


# ---------------------------------------------------------------------------
# 6. Round-trip of generated declarations
# ---------------------------------------------------------------------------

class DeclGenerator:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def name(self):
        return self.rng.choice("abcdefgh") + self.rng.choice("xyz0189")

    def gen_term(self, depth, fields):
        r = self.rng.random()
        if depth <= 0 or r < 0.25:
            return self.rng.choice([
                str(self.rng.randint(0, 99)),
                f"{self.rng.randint(1, 9)}/{self.rng.randint(2, 9)}",
                self.name(),
                "$" + self.rng.choice(fields + ["loc", "aux"]),
                "$$env" + str(self.rng.randint(0, 2)),
                "$_",
            ])
        if r < 0.45:
            op = self.rng.choice(["+", "-", "*", "/", "^"])
            return (f"{self.gen_term(depth - 1, fields)} {op} "
                    f"{self.gen_term(depth - 1, fields)}")
        if r < 0.6:
            args = ", ".join(self.gen_term(depth - 1, fields)
                             for _ in range(self.rng.randint(1, 3)))
            return f"{self.name()}({args})"
        if r < 0.75:
            members = ", ".join(self.gen_term(depth - 1, fields)
                                for _ in range(self.rng.randint(2, 3)))
            return f"({members})"
        if r < 0.9:
            members = ", ".join(self.gen_term(0, fields)
                                for _ in range(self.rng.randint(0, 3)))
            return "{%s}" % members
        return ("{%s} \\/ $%s" %
                (self.gen_term(0, fields), self.rng.choice(["u", "v", "w"])))

    def gen_predicate(self, fields):
        if self.rng.random() < 0.5:
            lhs = self.rng.choice(
                ["$" + self.rng.choice(fields + ["loc"]), str(self.rng.randint(0, 9))])
            op = self.rng.choice(["=", ">", "<", ">=", "<=", "!="])
            return f"{lhs} {op} {self.gen_term(2, fields)}"
        return f"{self.gen_term(2, fields)} :=: {self.gen_term(2, fields)}"

    def gen_clause(self, fields):
        m = self.rng.randint(0, 3)
        k = self.rng.randint(1, 3)
        conds = ", ".join(self.gen_predicate(fields) for _ in range(m))
        asserts = ", ".join(self.gen_predicate(fields) for _ in range(k))
        return f"{conds} => {asserts};" if conds else f"=> {asserts};"

    def gen_decl_entry(self, fields, depth=1):
        if depth > 0 and self.rng.random() < 0.3:
            conds = ", ".join(self.gen_predicate(fields)
                              for _ in range(self.rng.randint(1, 2)))
            inner = "\n".join(self.gen_decl_entry(fields, depth - 1)
                              for _ in range(self.rng.randint(1, 3)))
            return f"provided {conds} use\n{inner}\nend;"
        return self.gen_clause(fields)

    def gen_declaration(self):
        n_in = self.rng.randint(0, 3)
        fields_in = [f"i{k}" for k in range(n_in)]
        outs = []
        for t in range(self.rng.randint(0, 2)):
            outs.append([f"o{t}{k}" for k in range(self.rng.randint(1, 3))])
        fields = fields_in + [f for tup in outs for f in tup]
        header = (f"box B{self.rng.randint(0, 999)} "
                  f"(({','.join(fields_in)}) -> "
                  f"{', '.join('(' + ','.join(t) + ')' for t in outs)}):")
        body = "\n".join(self.gen_decl_entry(fields or ["x"])
                         for _ in range(self.rng.randint(0, 4)))
        return f"{header}\n{body}"


def test_criterion_6_round_trip():
    gen = DeclGenerator(6606)
    for _ in range(100):
        src = gen.gen_declaration()
        first = syntax.parse_declaration(src)
        again = syntax.parse_declaration(syntax.render(first))
        assert again == first, f"round trip broke for:\n{src}"
    report(6, "100 generated declarations survive parse(render(parse(src)))")


# ---------------------------------------------------------------------------
# 7. $_ semantics
# ---------------------------------------------------------------------------

def test_criterion_7_anonymous_variables():
    box = parse_box("box b ((x) -> (y)): $x :=: ($_, $_, $_) => $y = 1;")
    (clause,) = box.clauses
    anons = set()

    def collect(t):
        if isinstance(t, Var) and t.anonymous:
            anons.add(t)
        elif isinstance(t, Tup):
            for m in t.members:
                collect(m)
        elif isinstance(t, SetTerm):
            for e in t.elements:
                collect(e)
            for u in t.union_vars:
                collect(u)

    for p in clause.conditions + clause.assertions:
        collect(p.lhs)
        collect(p.rhs)
    assert len(anons) == 3

    ev = evaluate_box(box, BindingStore().bind(box.object_vars["x"], term("(1, 2, 3)")))
    (br,) = ev.branches
    bound_anons = {v for v, _ in br.store.items() if v.anonymous}
    assert bound_anons == anons
    table = _store_table(box, br.store)
    assert "$_" not in table and "$$_" not in table
    report(7, "three $_ occurrences make three distinct fresh variables, "
              "none listed in the report")


# ---------------------------------------------------------------------------
# 8. Message-count interval soundness
# ---------------------------------------------------------------------------

def test_criterion_8_interval_soundness():
    from calang.aggregate import multiply_counts

    rng = random.Random(8808)
    for _ in range(1000):
        lo = rng.randint(0, 20)
        hi = lo + rng.randint(0, 20)
        k = rng.randint(0, 12)
        limits = term(f"limits({lo},{hi})")
        count = term(str(k))
        got = multiply_counts(limits, count) if rng.random() < 0.5 else \
            multiply_counts(count, limits)
        true_products = {i * k for i in range(lo, hi + 1)}
        if isinstance(got, Num):
            assert true_products == {int(got.value)}
        else:
            assert got.head == Sym("limits")
            glo, ghi = int(got.members[1].value), int(got.members[2].value)
            assert all(glo <= p <= ghi for p in true_products)
    report(8, "1000 random limits x integer products contain every "
              "enumerated true product")
