"""Most general unification over terms, including flat set unification.

Unification is completely symmetric in its operands and returns *all*
maximally general unifiers: plain term unification has at most one, but
flat set unification (sets of the form ``{t1, ..., tn} \\/ v1 ... \\/ vq``)
generically has several incomparable ones.  Failure is the empty result,
never an exception.

The set unifier builds candidate solutions from three ingredients:

1. a *witness* choice pairing every element of each side with an element
   of the other side or absorbing it into one of the other side's union
   variables.  The choices are walked depth first, one element at a
   time, and each new pair is unified as soon as it is chosen, so a
   prefix whose pairs fail is dropped with everything that extends it;
2. an *extras* choice adding already-covered elements to union variables
   (set members may be covered more than once).  A union variable's
   extras are drawn from the known elements the witness did not already
   absorb into that variable: one it holds would repeat a candidate;
3. fresh *remainder* union variables shared between left and right union
   variables, standing for common content the equation does not name.

Every candidate is verified by resolving both operands and checking set
equality, so unsound choices are dropped; duplicates and strictly less
general solutions are filtered at the end.  The enumeration is
exponential in the set sizes, which is the intended trade: property sets
are a handful of members.

A solution is a :class:`BindingStore`, and so is the substitution the
one-way matcher behind :func:`is_instance_of` threads: both are applied
by :func:`resolve`.  Every walk over a term goes through
:func:`calang.terms.map_vars` or :func:`calang.terms.iter_vars`.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional

from .terms import (
    ANONYMOUS,
    ENVIRONMENT,
    LOCAL,
    SET,
    Num,
    SetTerm,
    Sym,
    Term,
    Tup,
    Var,
    classify,
    iter_vars,
    map_vars,
    term_text,
)


class BindingStore:
    """An immutable association of variables to terms.

    Extension copies; existing bindings are never changed or removed.  The
    store also carries the counter from which unification draws fresh
    variables, so identical runs allocate identical names.
    """

    __slots__ = ("_bindings", "_fresh")

    def __init__(self, bindings: Optional[dict[Var, Term]] = None, fresh: int = 0):
        self._bindings = dict(bindings) if bindings else {}
        self._fresh = fresh

    def binding(self, var: Var) -> Optional[Term]:
        return self._bindings.get(var)

    def is_bound(self, var: Var) -> bool:
        return var in self._bindings

    def bind(self, var: Var, term: Term) -> "BindingStore":
        if var in self._bindings:
            raise ValueError(f"variable {var.name} is already bound")
        s = BindingStore(self._bindings, self._fresh)
        s._bindings[var] = term
        return s

    def fresh_union_var(self) -> tuple[Var, "BindingStore"]:
        v = Var(("g", self._fresh), f"_G{self._fresh}", LOCAL)
        return v, BindingStore(self._bindings, self._fresh + 1)

    def items(self):
        return self._bindings.items()

    def variables(self) -> list[Var]:
        return list(self._bindings)

    def lookup_name(self, name: str, dollars: int = 1) -> Optional[Term]:
        """Fetch a binding by display name.

        Anonymous and compiler-generated variables are never reachable
        this way: they can be bound, not referred to.
        """
        for var in self._bindings:
            if var.anonymous or var.generated:
                continue
            if var.name != name:
                continue
            if (var.category == ENVIRONMENT) != (dollars == 2):
                continue
            return resolve(var, self)
        return None

    def __len__(self):
        return len(self._bindings)

    def __repr__(self):
        inner = ", ".join(f"{v.name}={term_text(t)}" for v, t in self._bindings.items())
        return f"BindingStore({inner})"


def resolve(term: Term, store: BindingStore) -> Term:
    """Apply the store to a term, recursively.

    Bound union variables merge their set values into the enclosing set,
    or become the variable they are bound to; a union variable bound to
    an individual is left in place for the well-formedness check to
    reject.  Ground terms are returned as they are, not rebuilt.
    """
    binding = store._bindings.get  # resolve is the hottest path; skip a call

    def lookup(v: Var) -> Term:
        b = binding(v)
        return v if b is None else map_vars(b, lookup)

    return map_vars(term, lookup)


def occurs_in(var: Var, term: Term, store: BindingStore) -> bool:
    """True when ``var`` occurs in ``term``, following the store's
    bindings."""
    for v in iter_vars(term):
        if v == var:
            return True
        b = store.binding(v)
        if b is not None and occurs_in(var, b, store):
            return True
    return False


def _bind(store: BindingStore, var: Var, term: Term,
          frozen: frozenset[Var]) -> Optional[BindingStore]:
    if var in frozen:
        return None
    if occurs_in(var, term, store):
        return None
    return store.bind(var, term)


def set_violation(r: Term, store: BindingStore) -> Optional[str]:
    """Well-formedness of a set already resolved under ``store``: its
    elements must be individuals, and a union variable still in it must
    be unbound (resolution leaves one bound to an individual in place)."""
    if not isinstance(r, SetTerm):
        return None
    for e in r.elements:
        if classify(e) == SET:
            return f"set member is itself a set: {term_text(e)}"
    for v in r.union_vars:
        if store.binding(v) is not None:
            return f"union variable {v.name} is bound to an individual"
    return None


def _set_view(t: Term, store: BindingStore) -> Optional[SetTerm]:
    """The resolved ``SetTerm`` that a set operand stands for: the set
    itself or a variable's binding.  Anything else, an ill-formed set
    or a raw ``\\union`` tuple included, yields None, which callers
    turn into failure.
    """
    if isinstance(t, SetTerm):
        r = resolve(t, store)
        return None if set_violation(r, store) else r
    if isinstance(t, Var):
        b = store.binding(t)
        return _set_view(b, store) if b is not None else None
    return None


# ---------------------------------------------------------------------------
# Term unification
# ---------------------------------------------------------------------------

def unify(t1: Term, t2: Term, store: Optional[BindingStore] = None,
          frozen: frozenset[Var] = frozenset(), _filter: bool = True) -> list[BindingStore]:
    """All maximally general extensions of ``store`` under which ``t1``
    and ``t2`` are equal (set-equal for sets).  Empty list means failure.

    ``frozen`` variables may be read but not bound; an attempted binding
    fails that branch.  The rules, applied in order: bound variables are
    resolved first; an unbound variable binds to the other operand (after
    an occurs check); of two unbound variables, the one that may bind is
    bound, and of two that may, the one with the larger id; non-variable
    basic terms unify only with identical basic terms; tuples unify
    member-wise at equal arity; tuples and sets never unify, and a raw
    ``\\union`` tuple (an ill-formed union) unifies with nothing; set
    against set goes through :func:`unify_sets`.
    """
    if store is None:
        store = BindingStore()

    while isinstance(t1, Var) and store.binding(t1) is not None:
        t1 = store.binding(t1)
    while isinstance(t2, Var) and store.binding(t2) is not None:
        t2 = store.binding(t2)

    if isinstance(t1, Var) and isinstance(t2, Var):
        if t1 == t2:
            return [store]
        # Bind the variable that may bind; when both may, the one with the
        # larger id, so the store does not depend on the operand order.
        if (t1 not in frozen, t1.vid) < (t2 not in frozen, t2.vid):
            t1, t2 = t2, t1
        s = _bind(store, t1, t2, frozen)
        return [s] if s is not None else []

    set1, set2 = classify(t1) == SET, classify(t2) == SET

    if isinstance(t1, Var) or isinstance(t2, Var):
        var, other, other_is_set = (t1, t2, set2) if isinstance(t1, Var) else (t2, t1, set1)
        if other_is_set:
            view = _set_view(other, store)
            if view is None:
                return []
            other = view
        s = _bind(store, var, other, frozen)
        return [s] if s is not None else []

    if set1 or set2:
        if not (set1 and set2):
            return []
        return unify_sets(t1, t2, store, frozen, _filter=_filter)

    match t1, t2:
        case (Num(), Num()) | (Sym(), Sym()):
            return [store] if t1 == t2 else []
        case (Tup(), Tup()):
            if len(t1.members) != len(t2.members):
                return []
            stores = [store]
            for a, b in zip(t1.members, t2.members):
                stores = [s2 for s in stores for s2 in unify(a, b, s, frozen, _filter=False)]
                if not stores:
                    return []
            if _filter and len(stores) > 1:
                stores = _prune(stores, _relevant_vars([t1, t2], store))
            return stores
        case _:
            return []


# ---------------------------------------------------------------------------
# Flat set unification
# ---------------------------------------------------------------------------

def unify_sets(s1: Term, s2: Term, store: Optional[BindingStore] = None,
               frozen: frozenset[Var] = frozenset(), _filter: bool = True) -> list[BindingStore]:
    """Unify two set terms, returning the complete antichain of maximally
    general solution stores.

    Solutions may bind fresh union variables ("remainders") standing for
    shared content the equation does not name.  Union variables are only
    ever bound to set terms.
    """
    if store is None:
        store = BindingStore()
    v1 = _set_view(s1, store)
    v2 = _set_view(s2, store)
    if v1 is None or v2 is None:
        return []

    A, U = list(v1.elements), list(v1.union_vars)
    B, W = list(v2.elements), list(v2.union_vars)

    if A and not B and not W:
        return []
    if B and not A and not U:
        return []

    # One choice per element, A's first: pair it with an element of the
    # other side or absorb it into one of the other side's union variables.
    options = ([[("pair", j) for j in range(len(B))] + [("absorb", w) for w in W]
                for _ in A]
               + [[("pair", i) for i in range(len(A))] + [("absorb", u) for u in U]
                  for _ in B])
    union_vars = list(dict.fromkeys(U + W))
    chosen: list[Optional[tuple]] = [None] * len(options)
    candidates: list[BindingStore] = []

    def walk(k: int, stores: list[BindingStore]):
        # Depth first, in the order of the full product of choices; a pair
        # is unified as soon as it is chosen, so a failing prefix is
        # dropped before any of its completions are built.
        if k == len(options):
            absorbed: dict[Var, list[Term]] = {v: [] for v in union_vars}
            for i, (kind, target) in enumerate(chosen):
                if kind == "absorb":
                    absorbed[target].append(A[i] if i < len(A) else B[i - len(A)])
            for s in stores:
                candidates.extend(_complete_candidate(s, A, B, U, W, absorbed, frozen))
            return
        for choice in options[k]:
            chosen[k] = choice
            kind, target = choice
            nxt = stores
            # A pair that both of its elements chose is unified only once.
            if kind == "pair" and (k < len(A) or chosen[target] != ("pair", k - len(A))):
                a, b = (A[k], B[target]) if k < len(A) else (A[target], B[k - len(A)])
                nxt = [s2 for s in stores for s2 in unify(a, b, s, frozen, _filter=False)]
                if not nxt:
                    continue
            walk(k + 1, nxt)

    walk(0, [store])

    verified = []
    for s in candidates:
        if resolve(v1, s) == resolve(v2, s):
            verified.append(s)

    if not _filter:
        return verified
    return _prune(verified, _relevant_vars([v1, v2], store))


def _complete_candidate(s: BindingStore, A, B, U, W, absorbed,
                        frozen: frozenset[Var]) -> list[BindingStore]:
    """Finish one witness choice: add extras and remainder variables to
    every union variable, yielding unverified candidate stores.

    A union variable's extras are any subset of the known elements (both
    sides, resolved under ``s``) that the witness did not already absorb
    into that same variable.  Set members collapse, so an extra it holds
    already would only repeat a candidate built without it.
    """
    ordered_vars = list(dict.fromkeys(U + W))
    if not ordered_vars:
        return [s]

    known = list(dict.fromkeys(resolve(e, s) for e in A + B))
    extra_options = []
    for v in ordered_vars:
        held = {resolve(e, s) for e in absorbed.get(v, ())}
        extra_options.append(_subsets([k for k in known if k not in held]))

    out: list[BindingStore] = []
    for extra_choice in product(*extra_options):
        s2 = s
        # Remainder variables shared between each left/right pair of union
        # variables; a variable occurring on both sides gets a private one.
        remainders: dict[Var, list[Var]] = {v: [] for v in ordered_vars}
        for u in U:
            for w in W:
                nv, s2 = s2.fresh_union_var()
                remainders[u].append(nv)
                if u != w:
                    remainders[w].append(nv)
        branch = [s2]
        for v, extras in zip(ordered_vars, extra_choice):
            nxt = []
            for st in branch:
                forced = [resolve(e, st) for e in absorbed.get(v, ())]
                value = SetTerm(forced + list(extras), remainders[v])
                if st.binding(v) is not None:
                    nxt.extend(unify(v, value, st, frozen, _filter=False))
                else:
                    b = _bind(st, v, value, frozen)
                    if b is not None:
                        nxt.append(b)
            branch = nxt
            if not branch:
                break
        out.extend(branch)
    return out


def _subsets(items: list) -> list[tuple]:
    out = [()]
    for it in items:
        out += [prev + (it,) for prev in out]
    return out


# ---------------------------------------------------------------------------
# Solution filtering: duplicates and strictly less general stores
# ---------------------------------------------------------------------------

def _relevant_vars(terms: Iterable[Term], store: BindingStore) -> list[Var]:
    out: dict[Var, None] = {}
    for t in terms:
        for v in iter_vars(resolve(t, store)):
            if store.binding(v) is None:
                out[v] = None
    return list(out)


def solution_snapshot(store: BindingStore, rvars: list[Var]) -> tuple:
    """A hashable fingerprint of what a solution says about ``rvars``.

    Every other variable in the resolved values becomes a placeholder
    numbered by first appearance, so alpha-equivalent solutions compare
    equal.
    """
    keep = frozenset(rvars)
    placeholders: dict[Var, Var] = {}

    def placeholder(v: Var) -> Var:
        if v in keep:
            return v
        if v not in placeholders:
            placeholders[v] = Var(("snapshot", len(placeholders)), "_", ANONYMOUS)
        return placeholders[v]

    return tuple(map_vars(resolve(v, store), placeholder) for v in rvars)


# -- one-way matching (instance checks) -------------------------------------
#
# ``_match(pattern, target, sub)`` yields extensions of the store ``sub``
# that bind the pattern's variables only: target variables are opaque and
# can appear in bindings but never be bound.  This is what "target is an
# instance of pattern" means, and reusing the symmetric unifier here would
# over-approximate.  Matching threads the same ``BindingStore`` as
# unification, and ``resolve`` applies it.  Everything is a lazy generator
# so an existence check stops at the first witness.

def _opaque(v: Var) -> bool:
    # Target-side variables (renamed into the "m" space) are constants
    # for matching purposes: they match only themselves.
    return v.vid[0] == "m"


def _match(pattern: Term, target: Term, sub: BindingStore):
    while isinstance(pattern, Var) and (b := sub.binding(pattern)) is not None:
        pattern = b
    if isinstance(pattern, Var):
        if _opaque(pattern):
            if pattern == target:
                yield sub
        else:
            yield sub.bind(pattern, target)
        return
    match pattern, target:
        case (Num(), Num()) | (Sym(), Sym()):
            if pattern == target:
                yield sub
        case (Tup(), Tup()):
            if len(pattern.members) == len(target.members):
                yield from _match_all(pattern.members, target.members, sub)
        case (SetTerm(), SetTerm()):
            yield from _match_sets(pattern, target, sub)
        case (SetTerm(), Var()):
            # A lone union variable can stand for an opaque target set.
            if not pattern.elements and len(pattern.union_vars) == 1:
                yield from _match(pattern.union_vars[0], SetTerm((), (target,)), sub)


def _match_all(patterns, targets, sub: BindingStore):
    """Match each pattern to its target, threading one store through."""
    if not patterns:
        yield sub
        return
    for s in _match(patterns[0], targets[0], sub):
        yield from _match_all(patterns[1:], targets[1:], s)


def _bindable_free(t: Term) -> bool:
    return any(not _opaque(v) for v in iter_vars(t))


def _match_sets(pattern: SetTerm, target: SetTerm, sub: BindingStore):
    pattern = resolve(pattern, sub)
    if not _bindable_free(pattern):
        # Nothing left to bind: plain set equality decides.
        if pattern == target:
            yield sub
        return
    Ep, Vp = list(pattern.elements), list(pattern.union_vars)
    Et, Vt = list(target.elements), list(target.union_vars)

    # Opaque union chunks on the pattern side can only stand for
    # themselves: they must appear on the target side too, and then cover
    # each other.
    for v in [v for v in Vp if _opaque(v)]:
        if v not in Vt:
            return
        Vp.remove(v)
        Vt.remove(v)

    if (Et or Vt) and not (Ep or Vp):
        return

    # Every pattern element must match some target element; then every
    # target element and chunk is handed to a subset of the pattern's
    # union variables.  Set union is idempotent, so a union variable may
    # re-cover an element that a pattern element already matched (a
    # value shared with another component can need it); an unmatched
    # element or a chunk must go into at least one union variable.
    def match_elems(i, s, used):
        if i == len(Ep):
            yield s, used
            return
        for j, et in enumerate(Et):
            for s2 in _match(Ep[i], et, s):
                yield from match_elems(i + 1, s2, used | {j})

    # Smallest subsets first, so the first witness tried is the one with
    # the fewest re-covered items.
    var_subsets = sorted(_subsets(Vp), key=len)

    def assign(items, k, s, values):
        if k == len(items):
            final = s
            for v in Vp:
                # a pre-bound variable keeps its value; the verification
                # below decides whether this distribution works
                if not final.is_bound(v):
                    final = final.bind(v, SetTerm(values[v][0], values[v][1]))
            if resolve(pattern, final) == target:
                yield final
            return
        kind, item, required = items[k]
        slot = 0 if kind == "elem" else 1
        for subset in var_subsets[1:] if required else var_subsets:
            for v in subset:
                values[v][slot].append(item)
            yield from assign(items, k + 1, s, values)
            for v in subset:
                values[v][slot].pop()

    for s, used in match_elems(0, sub, frozenset()):
        items = [("elem", et, j not in used) for j, et in enumerate(Et)]
        items += [("chunk", vt, True) for vt in Vt]
        values: dict[Var, tuple[list, list]] = {v: ([], []) for v in Vp}
        yield from assign(items, 0, s, values)


def _rename_apart(terms: list[Term]) -> list[Term]:
    """Bijectively rename every free variable to a fresh identity.

    Independent solutions can reuse generated variable ids, and matching
    must never confuse a pattern variable with a target one, so the
    target side gets a disjoint variable space.  The renamed variables
    live only inside one instance check, so the numbering restarts at
    every call.
    """
    mapping: dict[Var, Var] = {}

    def rename(v: Var) -> Var:
        if v not in mapping:
            mapping[v] = Var(("m", len(mapping)), v.name, v.category)
        return mapping[v]

    return [map_vars(t, rename) for t in terms]


def is_instance_of(specific: list[Term], general: list[Term]) -> bool:
    """True when the specific value vector is obtainable from the general
    one by substituting for its free variables.

    One substitution must serve every component at once.  A union
    variable of the general side may stand for any part of the matching
    specific set, including elements that the general side's own
    elements already cover: ``[{b} \\/ H, {a, b} \\/ H]`` is an instance
    of ``[{b} \\/ G, {a} \\/ G]`` by ``G := {b} \\/ H``.
    """
    if all(g.ground for g in general):
        return list(specific) == list(general)
    specific = _rename_apart(specific)
    return next(_match_all(general, specific, BindingStore()), None) is not None


def _prune(stores: list[BindingStore], rvars: list[Var]) -> list[BindingStore]:
    """Drop duplicate solutions (same observable content) and solutions
    strictly subsumed by a more general one.  Order is preserved."""
    seen: set[tuple] = set()
    kept: list[BindingStore] = []
    values: list[list[Term]] = []
    for s in stores:
        snap = solution_snapshot(s, rvars)
        if snap in seen:
            continue
        seen.add(snap)
        kept.append(s)
        values.append([resolve(v, s) for v in rvars])

    if len(kept) <= 1:
        return kept

    has_free = [not all(v.ground for v in vals) for vals in values]
    drop: set[int] = set()
    for i in range(len(kept)):
        if i in drop or not has_free[i]:
            continue
        for j in range(len(kept)):
            if i == j or j in drop:
                continue
            if is_instance_of(values[j], values[i]):
                if is_instance_of(values[i], values[j]) and i > j:
                    continue  # mutual: keep the earlier one
                drop.add(j)
    return [s for k, s in enumerate(kept) if k not in drop]
