"""Unification tests.

Set-unification expectations are frozen from a brute-force oracle that
enumerates ground instantiations over a small symbol universe and keeps
the assignments that make both sides equal as sets; the unifier must be
sound for every solution it returns and must cover every ground unifier
the oracle finds.
"""

import functools
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from calang.aggregate import instance_input_store, parse_env_file
from calang.arith import SET_IN_ARITH, PredicateFailure, eval_relation
from calang.clauses import evaluate_box, parse_box
from calang.syntax import parse_term
from calang.terms import (
    LOCAL,
    UNION_SYM,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    VarScope,
    desugar,
    iter_vars,
    map_vars,
    term_text,
)
from calang.unify import (
    BindingStore,
    is_instance_of,
    occurs_in,
    resolve,
    solution_snapshot,
    unify,
    unify_sets,
    _hidden_vars,
    _match_all,
    _may_match,
    _prune,
    _relevant_vars,
    _rename_apart,
)

a, b, c = Sym("a"), Sym("b"), Sym("c")


def lv(name, i):
    return Var(("t", i), name, LOCAL)


x, y = lv("x", 0), lv("y", 1)
v, w = lv("v", 2), lv("w", 3)


# ---------------------------------------------------------------------------
# Ground oracle
# ---------------------------------------------------------------------------

GROUND_INDIVIDUALS = [a, b, c, Tup((a, a))]
GROUND_SETS = [frozenset(s) for k in range(len(GROUND_INDIVIDUALS) + 1)
               for s in itertools.combinations(GROUND_INDIVIDUALS, k)]


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


def oracle_ground_unifiers(t1, t2, union_vars):
    """Every assignment of ground values to the free variables of the
    pair under which both sides are equal as sets."""
    all_vars = list(dict.fromkeys([*iter_vars(t1), *iter_vars(t2)]))
    elem_vars = [u for u in all_vars if u not in union_vars]
    set_vars = [u for u in all_vars if u in union_vars]
    out = []
    for elems in itertools.product(GROUND_INDIVIDUALS, repeat=len(elem_vars)):
        for sets in itertools.product(GROUND_SETS, repeat=len(set_vars)):
            env = dict(zip(elem_vars, elems))
            env.update(zip(set_vars, sets))
            if ground_set_value(t1, env) == ground_set_value(t2, env):
                out.append(env)
    return out


def env_vector(env, rvars, union_vars):
    vec = []
    for r in rvars:
        if r in union_vars:
            vec.append(SetTerm(sorted(env[r], key=repr)))
        else:
            vec.append(env[r])
    return vec


def assert_sound_and_complete(t1, t2, union_vars=(v, w)):
    solutions = unify_sets(t1, t2, BindingStore())
    rvars = _relevant_vars([t1, t2], BindingStore())
    for s in solutions:
        assert resolve(t1, s) == resolve(t2, s), (
            f"unsound: {term_text(t1)} ~ {term_text(t2)} under {s!r}")
    generals = [[resolve(r, s) for r in rvars] for s in solutions]
    seen = set()
    for env in oracle_ground_unifiers(t1, t2, union_vars):
        vec = env_vector(env, rvars, union_vars)
        key = tuple(map(repr, vec))
        if key in seen:
            continue
        seen.add(key)
        assert any(is_instance_of(vec, g) for g in generals), (
            f"incomplete: {term_text(t1)} ~ {term_text(t2)}, ground {key}")
    return solutions


# ---------------------------------------------------------------------------
# resolve / occurs
# ---------------------------------------------------------------------------

class TestResolve:
    def test_bound_variable(self):
        s = BindingStore().bind(x, Num(Fraction(5)))
        assert resolve(x, s) == Num(Fraction(5))

    def test_inside_tuple(self):
        s = BindingStore().bind(x, Tup((b, c)))
        assert resolve(Tup((a, x)), s) == Tup((a, Tup((b, c))))

    def test_unbound_stays(self):
        assert resolve(x, BindingStore()) == x

    def test_idempotent(self):
        s = BindingStore().bind(x, Tup((a, y))).bind(y, b)
        t = Tup((x, y, SetTerm([a], [v])))
        assert resolve(resolve(t, s), s) == resolve(t, s)

    def test_union_variable_merges_set_binding(self):
        s = BindingStore().bind(v, SetTerm([b]))
        assert resolve(SetTerm([a], [v]), s) == SetTerm([a, b])

    def test_ground_term_returned_as_is(self):
        s = BindingStore().bind(x, a).bind(v, SetTerm([b]))
        for t in (Tup((a, Tup((b, c)), Num(Fraction(2)))),
                  SetTerm([a, Tup((b, c))]),
                  Tup((a, SetTerm([b, c])))):
            assert resolve(t, s) is t

    def test_tuple_with_bound_variable_rebuilt(self):
        s = BindingStore().bind(x, b)
        t = Tup((a, Tup((c, x))))
        r = resolve(t, s)
        assert r is not t
        assert r == Tup((a, Tup((c, b))))
        assert r.ground and not t.ground

    def test_union_variable_aliased_to_variable(self):
        s = BindingStore().bind(v, w)
        assert resolve(SetTerm([a], [v]), s) == SetTerm([a], [w])

    def test_union_variable_bound_to_individual_stays(self):
        s = BindingStore().bind(v, b)
        assert resolve(SetTerm([a], [v]), s) == SetTerm([a], [v])


# -- properties over random terms and acyclic stores -------------------------

# Binding order: a variable is bound only to terms over variables after it.
ELEMENT_VARS = [lv(f"x{i}", 20 + i) for i in range(3)]
UNION_VARS = [lv(f"v{i}", 30 + i) for i in range(3)]
ORDERED_VARS = [u for pair in zip(ELEMENT_VARS, UNION_VARS) for u in pair]


def union_lists(union_vars):
    return st.lists(st.sampled_from(union_vars), max_size=2) if union_vars else st.just([])


def terms_over(element_vars, union_vars):
    leaves = st.sampled_from([a, b, c, Num(Fraction(1)), *element_vars])

    def extend(children):
        return (st.lists(children, min_size=1, max_size=3).map(lambda ms: Tup(tuple(ms)))
                | st.builds(SetTerm, st.lists(children, max_size=3), union_lists(union_vars)))

    return st.recursive(leaves, extend, max_leaves=6)


def binding_values(i):
    """Values for the i-th variable, over the variables after it; union
    variables get sets or union variables only, so resolution leaves no
    bound variable behind.  None leaves the variable unbound."""
    later = ORDERED_VARS[i + 1:]
    xs = [u for u in later if u in ELEMENT_VARS]
    vs = [u for u in later if u in UNION_VARS]
    if ORDERED_VARS[i] in UNION_VARS:
        values = (st.builds(SetTerm, st.lists(terms_over(xs, vs), max_size=2), union_lists(vs))
                  | st.sampled_from(vs or [SetTerm()]))
    else:
        values = terms_over(xs, vs)
    return st.none() | values


def build_store(values):
    s = BindingStore()
    for var, value in zip(ORDERED_VARS, values):
        if value is not None:
            s = s.bind(var, value)
    return s


STORES = st.tuples(*map(binding_values, range(len(ORDERED_VARS)))).map(build_store)
ANY_TERM = terms_over(ELEMENT_VARS, UNION_VARS)


@given(ANY_TERM, STORES)
def test_resolve_is_idempotent(t, s):
    r = resolve(t, s)
    assert resolve(r, s) == r


@given(ANY_TERM, STORES)
def test_resolved_term_has_no_bound_variable(t, s):
    assert not any(s.is_bound(u) for u in iter_vars(resolve(t, s)))


@given(STORES, st.lists(st.sampled_from(ORDERED_VARS), min_size=1, max_size=4))
def test_snapshot_ignores_names_of_other_variables(s, kept):
    kept = list(dict.fromkeys(kept))

    def rename(u):
        return u if u in kept else Var(("r", u.vid[1]), u.name + "_r", u.category)

    renamed = BindingStore({rename(k): map_vars(t, rename) for k, t in s.items()})
    assert solution_snapshot(renamed, kept) == solution_snapshot(s, kept)


class TestUnifyBasics:
    def test_variable_binds_to_number(self):
        (s,) = unify(x, Num(Fraction(5)))
        assert resolve(x, s) == Num(Fraction(5))

    def test_tuple_vs_set_fails(self):
        assert unify(Tup((a, b)), SetTerm([a, b])) == []

    def test_head_sugar_tuples_unify(self):
        # a(b,$x) is the tuple (a,b,$x)
        (s,) = unify(Tup((a, b, x)), Tup((a, b, c)))
        assert resolve(x, s) == c

    def test_arity_mismatch_fails(self):
        assert unify(Tup((a, b)), Tup((a, b, c))) == []

    def test_identical_symbols(self):
        assert len(unify(a, a)) == 1
        assert unify(a, b) == []

    def test_bound_variable_resolved_first(self):
        s0 = BindingStore().bind(x, a)
        assert len(unify(x, a, s0)) == 1
        assert unify(x, b, s0) == []

    def test_occurs_check(self):
        assert unify(x, Tup((a, x))) == []
        assert occurs_in(x, Tup((a, Tup((x,)))), BindingStore())

    def test_store_only_extends(self):
        s0 = BindingStore().bind(y, b)
        for s in unify(Tup((x, y)), Tup((a, b)), s0):
            assert resolve(y, s) == b
            assert resolve(x, s) == a

    def test_variable_pair_binds_the_same_way_in_both_orders(self):
        fwd, = unify(x, y)
        rev, = unify(y, x)
        assert solution_snapshot(fwd, [x, y]) == solution_snapshot(rev, [x, y])
        # A frozen variable is never the one bound, whichever side it is on.
        for frozen_var, free_var in ((x, y), (y, x)):
            frozen = frozenset([frozen_var])
            for t1, t2 in ((x, y), (y, x)):
                s, = unify(t1, t2, frozen=frozen)
                assert not s.is_bound(frozen_var)
                assert s.binding(free_var) == frozen_var

    def test_frozen_variable_cannot_bind(self):
        assert unify(x, a, frozen=frozenset([x])) == []
        # but a bound frozen variable still compares
        s0 = BindingStore().bind(x, a)
        assert len(unify(x, a, s0, frozen=frozenset([x]))) == 1


class TestUnifySets:
    def test_element_variable_two_solutions(self):
        # oracle: x in {a, b} both make {a,x} equal {a,b}? x=b gives {a,b};
        # x=a gives {a} != {a,b}. Wait: {a,a}={a}. So only x=b... plus x=a
        # fails. The oracle decides.
        sols = assert_sound_and_complete(SetTerm([a, x]), SetTerm([a, b]))
        values = {term_text(resolve(x, s)) for s in sols}
        assert "b" in values

    def test_union_variable_absorbs(self):
        sols = assert_sound_and_complete(SetTerm([a], [v]), SetTerm([a, b]))
        values = {term_text(resolve(v, s)) for s in sols}
        assert values == {"{b}", "{b, a}"}

    def test_empty_sets(self):
        (s,) = unify_sets(SetTerm(), SetTerm(), BindingStore())
        assert len(s) == 0

    def test_identical_sets_unify_without_binding(self):
        # The empty substitution is the one most general unifier, so
        # frozen variables may take part.
        store = BindingStore()
        for s in (SetTerm([], [x]), SetTerm([a, y], [x])):
            (got,) = unify_sets(s, s, store, frozenset([x, y]))
            assert got is store

    def test_ground_unequal_fails(self):
        assert unify_sets(SetTerm([a]), SetTerm([b]), BindingStore()) == []

    def test_mybox_pattern_extraction(self):
        t_var, n_var, m_var = lv("t", 10), lv("n", 11), lv("m", 12)
        anon = Var(("t", 13), "_", "anonymous")
        pattern_type = Tup((Sym("Type"), Sym("array"),
                            Tup((Sym("element"), t_var)),
                            Tup((Sym("rank"), Num(Fraction(2)))),
                            Tup((Sym("shape"), n_var, Tup((m_var, Sym("nil")))))))
        pattern = SetTerm([pattern_type], [anon])
        ground_type = Tup((Sym("Type"), Sym("array"),
                           Tup((Sym("element"), Sym("real"))),
                           Tup((Sym("rank"), Num(Fraction(2)))),
                           Tup((Sym("shape"), Num(Fraction(7)),
                                Tup((Num(Fraction(7)), Sym("nil")))))))
        packed = Tup((Sym("packed"), Sym("row_major")))
        subject = SetTerm([ground_type, packed])
        sols = unify_sets(pattern, subject, BindingStore())
        assert sols
        for s in sols:
            assert resolve(t_var, s) == Sym("real")
            assert resolve(n_var, s) == Num(Fraction(7))
            assert resolve(m_var, s) == Num(Fraction(7))

    def test_union_variable_aliased_to_variable(self):
        # v := w leaves v standing for whatever w will be.
        aliased = BindingStore().bind(v, w)
        sols = unify(SetTerm([a], [v]), SetTerm([a, b]), aliased)
        assert len(sols) == len(unify(SetTerm([a], [v]), SetTerm([a, b]))) == 2
        assert {term_text(resolve(v, s)) for s in sols} == {"{b}", "{b, a}"}

    def test_union_vars_both_sides_share_remainder(self):
        (s,) = unify_sets(SetTerm([a], [v]), SetTerm([], [w]), BindingStore())
        rv, rw = resolve(v, s), resolve(w, s)
        assert isinstance(rv, SetTerm) and not rv.elements
        assert isinstance(rw, SetTerm) and rw.elements == (a,)
        assert rv.union_vars == rw.union_vars

    def test_union_variable_binds_to_sets_only(self):
        for s in unify_sets(SetTerm([a], [v]), SetTerm([a, b], [w]), BindingStore()):
            for var in (v, w):
                bound = s.binding(var)
                if bound is not None:
                    assert isinstance(bound, SetTerm)

    def test_ill_formed_set_fails(self):
        nested = SetTerm([a, SetTerm([b])])
        assert unify_sets(nested, SetTerm([a]), BindingStore()) == []
        assert unify(x, nested) == []


    def test_ill_formed_unions_from_text_never_unify(self):
        # A union with an operand that is neither a set nor a variable
        # desugars to a raw \\union tuple, which unifies with nothing.
        scope = VarScope()
        bad = [desugar(parse_term(text), scope)
               for text in ("{a} \\/ b", "{a} \\/ b \\/ $v", "$v \\/ f($x)", "{a} \\/ 3")]
        assert all(isinstance(t, Tup) for t in bad)
        others = [SetTerm([]), SetTerm([a]), SetTerm([a, b]), SetTerm([a], [w]), y] + bad
        for t1 in bad:
            for t2 in others:
                assert unify(t1, t2) == [], (term_text(t1), term_text(t2))
                assert unify(t2, t1) == [], (term_text(t2), term_text(t1))
        out = eval_relation(x, "=", bad[0], BindingStore())
        assert isinstance(out, PredicateFailure) and out.reason == SET_IN_ARITH


class TestMaximalGenerality:
    def test_instance_check_recovers_matched_elements(self):
        # G := {b} \/ H re-covers b, which {b} already covers; the witness
        # is checked with resolve, independently of the matcher.
        g, h = v, w
        general = [SetTerm([b], [g]), SetTerm([a], [g])]
        specific = [SetTerm([b], [h]), SetTerm([a, b], [h])]
        witness = BindingStore().bind(g, SetTerm([b], [h]))
        assert [resolve(t, witness) for t in general] == specific
        assert is_instance_of(specific, general)
        # The converse has no witness: {a} \/ H cannot yield b.
        converse_general = [SetTerm([b], [h]), SetTerm([a, b], [h])]
        converse_specific = [SetTerm([b], [g]), SetTerm([a], [g])]
        assert not is_instance_of(converse_specific, converse_general)

    def test_instance_check_rejects_individual_union_value(self):
        # x := b would make {a} \/ x the ill-formed {a} \/ b, not {a, b}.
        assert not is_instance_of([b, SetTerm([a, b])], [x, SetTerm([a], [x])])
        assert is_instance_of([SetTerm([b]), SetTerm([a, b])], [v, SetTerm([a], [v])])

    def test_no_solution_subsumes_another(self):
        cases = [
            (SetTerm([a, x]), SetTerm([a, b])),
            (SetTerm([a], [v]), SetTerm([a, b])),
            (SetTerm([x], [v]), SetTerm([a, b], [w])),
            (SetTerm([a], [v]), SetTerm([b], [v])),
        ]
        for t1, t2 in cases:
            sols = unify_sets(t1, t2, BindingStore())
            rvars = _relevant_vars([t1, t2], BindingStore())
            vecs = [[resolve(r, s) for r in rvars] for s in sols]
            for i in range(len(vecs)):
                for j in range(len(vecs)):
                    if i != j:
                        assert not (is_instance_of(vecs[j], vecs[i])
                                    and not is_instance_of(vecs[i], vecs[j])), (
                            f"solution {j} subsumed by {i} for "
                            f"{term_text(t1)} ~ {term_text(t2)}")

    @pytest.mark.parametrize("swap", [False, True], ids=["fewer-first", "more-first"])
    def test_prune_keeps_the_earlier_of_two_equivalent_solutions(self, swap):
        # {a} \/ G and {a} \/ G \/ H are instances of each other, by H := {}
        # one way and G := G \/ H the other.
        g, s = BindingStore().fresh_union_var()
        h, s = s.fresh_union_var()
        stores = [s.bind(v, SetTerm([a], [g])), s.bind(v, SetTerm([a], [g, h]))]
        stores = stores[::-1] if swap else stores
        first, second = (solution_snapshot(store, [v]) for store in stores)
        assert is_instance_of(first, second) and is_instance_of(second, first)
        assert _prune(stores, [v]) == stores[:1]

    def test_matcher_reads_empty_union_as_the_variable(self):
        # {} \/ X is X: a pattern {} \/ G whose G stands for the opaque
        # target set matches it.
        assert is_instance_of([w, w], [v, SetTerm([], [v])])
        # So a general variable that is a whole component at two places
        # matches {} \/ X at one and X at the other, in a tuple too.
        assert is_instance_of([SetTerm([], [w]), w], [v, v])
        assert is_instance_of([Tup((a, SetTerm([], [w]))), Tup((a, w))], [v, v])
        # Without that, {a} \/ $w ~ {a, f({} \/ $v)} \/ $w kept a second
        # solution in one operand order, an instance of the first under
        # $_ := {a} \/ $_.
        t1, t2 = SetTerm([a], [w]), SetTerm([a, Tup((Sym("f"), SetTerm([], [v])))], [w])
        rvars = _relevant_vars([t1, t2], BindingStore())
        (fwd,), (rev,) = unify_sets(t1, t2, BindingStore()), unify_sets(t2, t1, BindingStore())
        assert solution_snapshot(fwd, rvars) == solution_snapshot(rev, rvars)

    def test_symmetry_up_to_renaming(self):
        cases = [
            (SetTerm([a, x]), SetTerm([a, b])),
            (SetTerm([a], [v]), SetTerm([b], [w])),
            (SetTerm([a, x], [v]), SetTerm([b], [w])),
            (Tup((a, x)), Tup((a, b))),
        ]
        for t1, t2 in cases:
            rvars = _relevant_vars([t1, t2], BindingStore())
            fwd = {solution_snapshot(s, rvars) for s in unify(t1, t2)}
            rev = {solution_snapshot(s, rvars) for s in unify(t2, t1)}
            assert fwd == rev


@pytest.mark.parametrize("t1,t2", [
    (SetTerm([a, x]), SetTerm([a, b])),
    (SetTerm([x, y]), SetTerm([a])),
    (SetTerm([a], [v]), SetTerm([a, b])),
    (SetTerm([a], [v]), SetTerm([], [w])),
    (SetTerm([a], [v]), SetTerm([b], [v])),
    (SetTerm([Tup((a, x))], [v]), SetTerm([Tup((a, b)), c])),
    (SetTerm([x], [v]), SetTerm([y], [w])),
    (SetTerm([], [v]), SetTerm([a, b, c])),
    (SetTerm([Tup((a, x))], [v]), SetTerm([Tup((a, a)), a, b, c])),
    (SetTerm([a, x], [v]), SetTerm([b], [w])),
])
def test_oracle_agreement(t1, t2):
    assert_sound_and_complete(t1, t2)


def small_pairs():
    """Every pair of set terms over {a, b, $x, $y} with at most three
    members in all, $v on the left and $w or $v on the right.  A pair in
    which both element variables occur has at most two members: each
    element variable multiplies the ground enumeration by four."""
    sides = [elems for k in range(3) for elems in itertools.combinations([a, b, x, y], k)]
    for e1, e2 in itertools.product(sides, repeat=2):
        if len(e1) + len(e2) <= (2 if {x, y} <= {*e1, *e2} else 3):
            for right in (w, v):
                yield SetTerm(e1, [v]), SetTerm(e2, [right])


def test_small_pairs_sound_complete_minimal_and_order_independent():
    pairs = list(small_pairs())
    assert len(pairs) == 138
    for t1, t2 in pairs:
        text = f"{term_text(t1)} ~ {term_text(t2)}"
        sols = assert_sound_and_complete(t1, t2)
        rvars = _relevant_vars([t1, t2], BindingStore())
        vecs = [[resolve(r, s) for r in rvars] for s in sols]
        for i, j in itertools.permutations(range(len(vecs)), 2):
            assert not is_instance_of(vecs[j], vecs[i]), f"solution {j} is an instance of {i}: {text}"
        rev = unify_sets(t2, t1, BindingStore())
        assert len(rev) == len(sols), text
        assert ({solution_snapshot(s, rvars) for s in rev}
                == {solution_snapshot(s, rvars) for s in sols}), text


# ---------------------------------------------------------------------------
# The ladder, the candidates the unifier builds, and the prefilter of
# is_instance_of
# ---------------------------------------------------------------------------

def ladder(k):
    """The rung ``{$x1..$xk} \\/ $v ~ {s1..sk} \\/ $w`` of the set-equation
    ladder: k element variables against the first k of a, b and c, with a
    distinct union variable on each side."""
    xs = [lv(f"x{i + 1}", 10 + i) for i in range(k)]
    return SetTerm(xs, [v]), SetTerm([a, b, c][:k], [w])


@functools.cache
def ladder_run(k, reverse=False):
    """The solutions of rung k in one operand order, and the length of
    each candidate list that reached ``_prune``."""
    t1, t2 = ladder(k)
    return candidate_run(t2, t1) if reverse else candidate_run(t1, t2)


def candidate_run(t1, t2):
    """The solutions of ``t1 ~ t2``, and the length of each candidate list
    that reached ``_prune``."""
    lengths = []

    def counting(stores, rvars):
        lengths.append(len(stores))
        return _prune(stores, rvars)

    with mock.patch("calang.unify._prune", counting):
        return unify_sets(t1, t2, BindingStore()), lengths


def assert_ladder_minimal_and_order_independent(k, count):
    t1, t2 = ladder(k)
    rvars = _relevant_vars([t1, t2], BindingStore())
    fwd, rev = ladder_run(k)[0], ladder_run(k, True)[0]
    assert len(fwd) == len(rev) == count
    assert ({solution_snapshot(s, rvars) for s in fwd}
            == {solution_snapshot(s, rvars) for s in rev})
    for sols in (fwd, rev):
        vecs = [[resolve(r, s) for r in rvars] for s in sols]
        for i, j in itertools.permutations(range(len(vecs)), 2):
            assert not is_instance_of(vecs[j], vecs[i]), f"solution {j} is an instance of {i}"


def test_ladder_rung_2_is_minimal_and_order_independent():
    assert_ladder_minimal_and_order_independent(2, 35)


def test_ladder_rung_3_is_minimal_and_order_independent():
    assert_ladder_minimal_and_order_independent(3, 484)


@pytest.mark.parametrize("k,candidates", [(1, 4), (2, 43), (3, 757)])
def test_ladder_builds_no_supplied_extra_nor_absorbed_pair(k, candidates):
    # The full enumeration, _filter=False, builds 12, 328 and 14,176.
    # Without rule (c) for named union variables, 6, 89 and 2,176.
    assert ladder_run(k)[1] == ladder_run(k, True)[1] == [candidates]


def test_a_named_union_variable_absorbs_no_paired_element():
    # {a} \/ $v ~ {a} \/ $w: of the 6 candidates that the extras rule
    # leaves, 2 pair a with a and also absorb it into $v or $w.
    t1, t2 = SetTerm([a], [v]), SetTerm([a], [w])
    for p, q in ((t1, t2), (t2, t1)):
        sols, lengths = candidate_run(p, q)
        assert (len(sols), lengths) == (3, [4])


def distinct_union_pairs():
    """Pairs whose sides have the distinct union variables $v and $w, or
    none, with at most three members in all (the answer gate's
    ``distinct-union`` corpus)."""
    sides = [elems for k in range(3)
             for elems in itertools.combinations([a, b, x, y, Tup((a, x))], k)]
    return [(SetTerm(e1, u1), SetTerm(e2, u2))
            for e1, e2 in itertools.product(sides, repeat=2) if len(e1) + len(e2) <= 3
            for u1 in ([], [v]) for u2 in ([], [w])]


# Equations with tuple elements and a shared union variable, or two
# union variables that share a tuple element's variable.
TUPLE_UNION = [
    ("{(h, $z), h} \\/ $v", "{d, h} \\/ $v"),
    ("{f, c($t)} \\/ $w", "{c($t)} \\/ $v"),
    ("{$z, e($p)} \\/ $v", "{$z, b} \\/ $v"),
    ("{(h, $x), $y} \\/ $v", "{(h, $z), d} \\/ $v"),
]


def prefilter_sources():
    from test_acceptance import pair_universe

    shared = pair_universe()
    rungs = [ladder(1), ladder(2)]
    tuples = [parse_pair(left, right)[:2] for left, right in TUPLE_UNION]
    return {
        "criterion-2": [(t1, t2) for t1 in shared for t2 in shared],
        "distinct-union": distinct_union_pairs(),
        "ladder": rungs + [(t2, t1) for t1, t2 in rungs],
        "tuple-union": tuples + [(t2, t1) for t1, t2 in tuples],
    }


# Per source: the ordered pairs of distinct unfiltered solutions, and how
# many of them pass the prefilter and reach the matcher.  Dropping rule
# (i) of the unify module docstring raises every count, rule (ii) those
# of criterion-2, distinct-union and tuple-union, rule (iii) those of
# distinct-union, ladder and tuple-union.
PREFILTER_PASSES = {
    "criterion-2": (31440, 5676),
    "distinct-union": (28020, 6869),
    "ladder": (32624, 2726),
    "tuple-union": (488, 98),
}


@pytest.mark.parametrize("source", list(PREFILTER_PASSES))
def test_ground_part_prefilter_passes_every_pair_with_a_witness(source):
    # The prefilter is only a necessary condition: on the unfiltered
    # solutions, every ordered pair in which the bare matcher finds a
    # witness must pass it.  Pairs that pass are left to the matcher
    # anyway, so only the rejected ones need the matcher here.
    pairs = passed = 0
    for t1, t2 in prefilter_sources()[source]:
        rvars = _relevant_vars([t1, t2], BindingStore())
        vecs = list(dict.fromkeys(solution_snapshot(s, rvars)
                                  for s in unify_sets(t1, t2, BindingStore(), _filter=False)))
        for specific, general in itertools.permutations(vecs, 2):
            pairs += 1
            if _may_match(specific, general):
                passed += 1
                continue
            witness = next(_match_all(general, _rename_apart(specific), BindingStore()), None)
            assert witness is None, (
                f"{term_text(t1)} ~ {term_text(t2)}: prefilter rejects "
                f"{[term_text(t) for t in specific]} against {[term_text(t) for t in general]}")
    assert (pairs, passed) == PREFILTER_PASSES[source]


# ---------------------------------------------------------------------------
# Exactness: the answer is the prune of the full enumeration
# ---------------------------------------------------------------------------

def assert_prune_of_full_enumeration(t1, t2, solutions):
    """``solutions``, the answer of ``unify_sets(t1, t2)``, is the prune
    of every candidate that the unfiltered enumeration builds, snapshot
    for snapshot and in order, on every variable but a written ``$_``."""
    rvars = _relevant_vars([t1, t2], BindingStore(), _hidden_vars((t1, t2)))
    full = _prune(unify_sets(t1, t2, BindingStore(), _filter=False), rvars)
    assert ([solution_snapshot(s, rvars) for s in solutions]
            == [solution_snapshot(s, rvars) for s in full]), f"{term_text(t1)} ~ {term_text(t2)}"


def test_distinct_union_answers_are_the_prune_of_the_full_enumeration():
    for t1, t2 in distinct_union_pairs():
        assert_prune_of_full_enumeration(t1, t2, unify_sets(t1, t2, BindingStore()))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ladder_answers_are_the_prune_of_the_full_enumeration(k):
    t1, t2 = ladder(k)
    assert_prune_of_full_enumeration(t1, t2, ladder_run(k)[0])
    assert_prune_of_full_enumeration(t2, t1, ladder_run(k, True)[0])


# Members of flat equations: none holds $v or $w, the union variables, but
# two hold a set open in $z.
z = lv("z", 4)
FLAT_SIDES = st.tuples(
    st.lists(st.sampled_from([a, b, x, y, Tup((a, x)), Tup((Sym("f"), SetTerm([], [z]))),
                              Tup((Sym("f"), SetTerm([a], [z])))]), max_size=2, unique=True),
    st.sampled_from([[], [v], [w]]))


@settings(max_examples=100, deadline=None)
@given(FLAT_SIDES, FLAT_SIDES)
def test_flat_answers_are_the_prune_of_the_full_enumeration(left, right):
    assume(len(left[0]) + len(right[0]) <= 3)
    t1, t2 = SetTerm(*left), SetTerm(*right)
    assert_prune_of_full_enumeration(t1, t2, unify_sets(t1, t2, BindingStore()))


# Members of non-flat equations: f($v), f({a} \/ $v) and $v itself hold one
# of the equation's union variables.
f = Sym("f")
NESTED_SIDES = st.tuples(
    st.lists(st.sampled_from([a, b, x, Tup((f, v)), Tup((f, SetTerm([a], [v]))), v,
                              Tup((f, SetTerm([], [w]))), w]), max_size=2, unique=True),
    st.sampled_from([[], [v], [w]]))


@settings(max_examples=200, deadline=None)
@given(NESTED_SIDES, NESTED_SIDES)
def test_every_candidate_of_a_non_flat_equation_is_a_solution(left, right):
    # unify_sets keeps every candidate its walk completes, with no final
    # check; the unify module docstring proves that both sides agree.
    t1, t2 = SetTerm(*left), SetTerm(*right)
    for s in unify_sets(t1, t2, BindingStore(), _filter=False):
        assert resolve(t1, s) == resolve(t2, s), f"{term_text(t1)} ~ {term_text(t2)}: {s!r}"


# ---------------------------------------------------------------------------
# Hidden variables and the pair memo
# ---------------------------------------------------------------------------

def parse_pair(left, right):
    scope = VarScope()
    return desugar(parse_term(left), scope), desugar(parse_term(right), scope), scope


class TestHiddenAnonymousVariables:
    """A ``$_`` written in an operand shows in no report, so set
    unification neither keys nor forks on what it holds."""

    def test_a_property_guard_has_one_solution(self):
        # The full enumeration keeps 4, which differ only in what $_ holds.
        t1, t2, scope = parse_pair("{value(88), Type(int)}", "{value($kv), Type(int)} \\/ $_")
        (s,) = unify(t1, t2)
        assert resolve(scope.known("kv"), s) == Num(Fraction(88))

    def test_named_variables_still_fork(self):
        t1, t2, scope = parse_pair("{a, b}", "{$x} \\/ $_")
        assert [resolve(scope.known("x"), s) for s in unify(t1, t2)] == [a, b]

    def test_a_set_inside_a_tuple_does_not_fork_on_its_hidden_variable(self):
        t1, t2, _ = parse_pair("f({a} \\/ $_)", "f({a, b, c})")
        assert len(unify(t1, t2)) == len(unify(t2, t1)) == 1

    def test_a_variable_reached_through_an_earlier_binding_is_not_hidden(self):
        # As clause 2 of test_anonymous_variable_keeps_branches_apart:
        # {a} \/ $_ ~ {a, $z} has $z = a with $_ = {}, or $_ = {$z} or
        # {$z, a}.  With $_ left out of the key, the first would be an
        # instance of the others, and one solution would remain.
        q_value, pattern, scope = parse_pair("{a} \\/ $_", "{a, $z}")
        q, z = lv("q", 40), scope.known("z")
        for operand in (q, SetTerm([], [q])):
            sols = unify(operand, pattern, BindingStore().bind(q, q_value))
            assert [resolve(z, s) for s in sols] == [a, z, z]

    def test_a_variable_from_an_env_file_is_not_hidden(self):
        box = parse_box("box X ((x) -> (y)): $x :=: {a, $z} => $y :=: {$z};")
        store = instance_input_store(box, ("X",), parse_env_file("X.$x = {a} \\/ $_\n"))
        y = box.object_vars["y"]
        assert [term_text(resolve(y, br.store)) for br in evaluate_box(box, store).branches] \
            == ["{a}", "{$z}"]

    def test_a_tuple_with_nothing_to_report_keeps_its_first_store(self):
        # Every store keys alike, so the filter keeps the first, unpruned.
        t1, t2, _ = parse_pair("f({a} \\/ $_, {b} \\/ $_)", "f({a, b}, {b, c})")
        for p, q in ((t1, t2), (t2, t1)):
            full = unify(p, q, _filter=False)
            assert len(full) > 1
            members = []

            def recording(*args, **kwargs):
                members.append(unify_sets(*args, **kwargs))
                return members[-1]

            with mock.patch("calang.unify._prune", side_effect=AssertionError), \
                    mock.patch("calang.unify.unify_sets", recording):
                (s,) = unify(p, q)
            assert list(s.items()) == list(full[0].items())
            # Each member stops at its first solution: one store apiece.
            assert [len(m) for m in members] == [1, 1]


h, h2 = Var(("t", 5), "_", "anonymous"), Var(("t", 6), "_", "anonymous")


def write_hidden(t, union_var, hidden):
    """``t`` with ``union_var`` written as the ``$_`` ``hidden``."""
    return SetTerm(t.elements, [hidden if u == union_var else u for u in t.union_vars])


@settings(max_examples=100, deadline=None)
@given(FLAT_SIDES, FLAT_SIDES, st.sampled_from(["left", "right", "both"]))
def test_hidden_union_variable_answers_are_the_prune_of_the_full_enumeration(left, right, where):
    # A literal $_ opens the left side, the right side or both; the answer
    # is the prune, on every other variable, of the unfiltered
    # enumeration, in order, in both operand orders.
    assume(len(left[0]) + len(right[0]) <= 3)
    t1 = SetTerm(left[0], [h, *left[1]] if where != "right" else left[1])
    t2 = SetTerm(right[0], [h2, *right[1]] if where != "left" else right[1])
    for p, q in ((t1, t2), (t2, t1)):
        assert_prune_of_full_enumeration(p, q, unify(p, q))


@pytest.mark.parametrize("where", ["left", "right", "both"])
def test_written_anonymous_answers_are_the_prune_of_the_full_enumeration(where):
    # The distinct-union pairs with $v, $w or both written as $_.
    tried = 0
    for t1, t2 in distinct_union_pairs():
        p = write_hidden(t1, v, h) if where != "right" else t1
        q = write_hidden(t2, w, h2) if where != "left" else t2
        if (p, q) == (t1, t2):
            continue
        tried += 1
        assert_prune_of_full_enumeration(p, q, unify_sets(p, q, BindingStore()))
        assert_prune_of_full_enumeration(q, p, unify_sets(q, p, BindingStore()))
    assert tried


# Equations whose members are all ground: MYBOX's guards once its
# variables are bound, ground sets inside tuples, and $_ on either side.
MYBOX_TYPE = "Type(array, element(real), rank(2), shape(7, (7, nil)))"
GROUND_EQUATIONS = [
    ("{value(73), Type(int)}", "{value(73), Type(int)} \\/ $_"),
    ("{value(73), Type(int)}", "{value(74), Type(int)} \\/ $_"),
    (f"{{{MYBOX_TYPE}, packed(row_major), aligned(64)}}", f"{{{MYBOX_TYPE}}} \\/ $_"),
    (f"{{{MYBOX_TYPE}, packed(row_major)}}", f"{{{MYBOX_TYPE}, packed(col_major)}} \\/ $_"),
    ("{a, b, c}", "{c, b, a}"),
    ("{a, b}", "{a, c}"),
    ("{a, b} \\/ $_", "{b, c} \\/ $_"),
    ("{f({a, b}), c}", "{f({b, a})} \\/ $_"),
    ("{f({a, b}), g({c})}", "{g({c}), f({a})} \\/ $_"),
    ("{f({a}, {b, c}), f({a}, {c})}", "{f({a}, {c, b})} \\/ $_"),
]
# The same ground sets inside tuples, beside named variables.
NESTED_GROUND_EQUATIONS = [
    ("{f({a, b}), $x}", "{f({b, a}), c} \\/ $v"),
    ("{f({a, b}, $x)} \\/ $_", "{f({b, a}, c), f({a}, c)}"),
    ("{f({a}), f({a, b})} \\/ $v", "{f({b, a}), $x} \\/ $_"),
]


@pytest.mark.parametrize("left,right", GROUND_EQUATIONS + NESTED_GROUND_EQUATIONS)
def test_ground_member_answers_are_the_prune_of_the_full_enumeration(left, right):
    t1, t2, _ = parse_pair(left, right)
    for p, q in ((t1, t2), (t2, t1)):
        assert_prune_of_full_enumeration(p, q, unify_sets(p, q, BindingStore()))


def test_a_raw_union_inside_a_member_never_unifies():
    # Desugaring merges a union of sets into one set, so this \union
    # tuple is built by hand; unify matches it with nothing, and the
    # well-formedness check keeps it from the comparison of ground pairs.
    raw = Tup((f, Tup((UNION_SYM, SetTerm([a]), SetTerm([b])))))
    assert unify(raw, raw) == []
    assert unify(SetTerm([raw]), SetTerm([raw], [h])) == []
    assert unify(SetTerm([raw], [h]), SetTerm([raw])) == []


@pytest.mark.parametrize("left,right", GROUND_EQUATIONS)
def test_ground_members_are_compared_not_unified(left, right):
    t1, t2, _ = parse_pair(left, right)
    for p, q in ((t1, t2), (t2, t1)):
        with mock.patch("calang.unify.unify", wraps=unify) as calls:
            assert len(unify_sets(p, q, BindingStore())) <= 1
        assert calls.call_count == 0, f"{left} ~ {right}"


@functools.cache
def criterion_2_draws():
    """Strategies over the criterion-2 universe: an operand, one of its
    elements, one of its sets or a tuple holding a set; and a value or
    None for each of $y, $x and $v, in that order, each value over the
    variables before it."""
    from test_acceptance import ELEMENT_POOL, V, X, Y, pair_universe

    sets = pair_universe()
    operands = st.sampled_from(ELEMENT_POOL + sets + [Tup((Sym("f"), t)) for t in sets[::5]])
    values = st.tuples(
        st.sampled_from([None, a, b, Tup((a, a))]),
        st.sampled_from([None, a, c, Y, Tup((a, Y))]),
        st.sampled_from([None, SetTerm(), SetTerm([a]), SetTerm([a, X]), SetTerm([b], [lv("w", 41)])]))
    return (Y, X, V), operands, values


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_pair_that_fails_fails_under_every_extension(data):
    # What lets unify_sets skip a pair, under every store of its walk, that
    # fails under the entry store.
    variables, operands, values = criterion_2_draws()
    t1, t2 = data.draw(operands), data.draw(operands)
    s = extended = BindingStore()
    for var, value in zip(variables, data.draw(values)):
        if value is not None:
            extended = extended.bind(var, value)
            if data.draw(st.booleans()):
                s = s.bind(var, value)
    if not unify(t1, t2, s):
        assert not unify(t1, t2, extended), f"{term_text(t1)} ~ {term_text(t2)} under {extended!r}"
