"""Unification tests.

Set-unification expectations are frozen from a brute-force oracle that
enumerates ground instantiations over a small symbol universe and keeps
the assignments that make both sides equal as sets; the unifier must be
sound for every solution it returns and must cover every ground unifier
the oracle finds.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from calang.arith import SET_IN_ARITH, PredicateFailure, eval_relation
from calang.syntax import parse_term
from calang.terms import (
    LOCAL,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    VarScope,
    desugar,
    free_vars,
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
    _relevant_vars,
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
    all_vars = list(dict.fromkeys(free_vars(t1) + free_vars(t2)))
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
    assert not any(s.is_bound(u) for u in free_vars(resolve(t, s)))


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
