"""Most general unification over terms, including flat set unification.

Unification is completely symmetric in its operands and returns *all*
maximally general unifiers: plain term unification has at most one, but
flat set unification (sets of the form ``{t1, ..., tn} \\/ v1 ... \\/ vq``)
generically has several incomparable ones.  Failure is the empty result,
never an exception.

The set unifier builds candidate solutions from three ingredients:

1. a *witness* choice pairing every element of each side with an element
   of the other side or absorbing it into one of the other side's union
   variables;
2. an *extras* choice adding already-covered elements to union variables
   (set members may be covered more than once).  A union variable's
   extras are drawn from the known elements the witness did not already
   absorb into that variable: one it holds would repeat a candidate;
3. fresh *remainder* union variables shared between left and right union
   variables, standing for common content the equation does not name.

One depth-first walk builds and binds each candidate: the witness
choices element by element, then each union variable's extras in turn.
A choice whose pair does not unify, or whose union variable cannot bind
or unify with its value, is dropped with everything that extends it.
Every candidate it completes is a solution, with no final check.  Under
its store, as the unifier's answers for the pairs and the bound union
variables are sound (by induction on the calls) and stay so under every
extension, each element equals the one it was paired with or is held by
the union variable that absorbed it; each extra is a known element, on
its own side and, by its witness, on the other; and each side holds
every remainder.  So both sides resolve to the same set.  The walk
unifies each pair of elements once per store, and a pair that fails
under the entry store is never tried under an extension of it: the
unifier is complete, so no extension unifies a pair that the entry store
cannot.  A filter then makes one pass over the solutions, in order: it
skips a duplicate and a solution that a kept one subsumes, and a
solution it keeps drops the kept ones it subsumes.  As instance-of is
transitive, that leaves the most general solutions, the earlier of two
equivalent ones.  The instance check runs its matcher only when the
specific solution keeps every ground part of the general one: no
substitution changes a ground part, so the test rejects no instance.

When the call filters its own answer and the equation is *flat*, no
element holding one of its union variables, the walk builds only the
candidates the filter could keep: a union variable takes no extra that
a variable sharing a remainder with it already holds, absorbed or as an
earlier extra, nor any extra when its remainder is private: the
candidate with that extra is the one without it, built earlier, under
``R := {e} \\/ R``, so the filter would drop it or keep the earlier one.
The answer and its order are those of the full enumeration.  The
enumeration is exponential in the set sizes, which is the intended
trade: property sets are a handful of members.

A ``$_`` written in an operand, not reached through a binding, is
*hidden*.  It is fresh and occurs once, so no binding of the entry store
reaches it, and it shows only through the values of the other variables.
The filter leaves hidden variables out of its key, and a lean walk gives
a hidden union variable no extras: the same witness without them comes
first and has the same key.  So ``{value($v)} \\/ $_`` against a ground
set has one solution, not one per choice of what ``$_`` holds, and so
has a tuple holding it, whose prune keys alike.  A ``$_`` in a
variable's binding, from an earlier predicate or an environment file,
stays in the key.

Three more rules skip only candidates that the filter would drop unseen,
so the answer and its order stay those of the full enumeration:

(a) *Nothing to report: stop at the first solution.*  When the operands
hold no variable but hidden ones, the filter's key is empty and every
snapshot is ``()``.  The filter keeps the first candidate and skips each
later one as a duplicate, so the walk stops at its first solution.  The
members of a tuple with nothing to report have nothing to report either,
so each stops at its first solution, and the tuple builds one store.  A
MYBOX guard re-checked once its variables are bound is such an equation.

(b) *Ground pairs: compare, do not unify.*  Both operands are
well-formed sets, so a ground element is a number, a symbol, or a tuple
of such terms and of well-formed ground sets: the well-formedness
check rejects a raw ``\\union`` tuple, the one term that :func:`unify`
does not match with itself.  Two such terms unify exactly when they are equal, nested sets
as sets, and then bind nothing.  So a pair of ground elements gives its
store unchanged or fails, with no call to :func:`unify` and no memo
entry.

(c) *A union variable never absorbs a paired element.*  In a lean walk,
an element of the right side does not pair with a left element that a
union variable absorbed, nor go into a union variable once a left
element pairs with it.  Take a leaf that breaks this, and turn the
absorption of an element ``e`` into ``u`` into the pair: the left
element pairs with the right one, or the right one with the left element
that pairs with it.  The new leaf comes earlier, as pairs come before
absorptions and the left side chooses first.  It unifies the same pairs,
and only ``u`` holds less, so every other variable is offered the same
extras or more.  Take a candidate of the skipped leaf.  Where the new
leaf offers ``u`` the extra ``e``, the candidate that takes it is the
skipped one, a duplicate.  Where the lean walk withholds it, a variable
sharing the remainder ``R`` with ``u`` holds ``e``, or ``R`` is ``u``'s
private one, and the skipped candidate is the new leaf's without ``e``
under ``R := {e} \\/ R``: an instance of a candidate built earlier.  A
hidden ``u``, which takes no extras, is the case no key shows.
Repeating the change removes an absorption each time, so it ends at a
leaf the rule keeps.

A solution is a :class:`BindingStore`, and so is the substitution the
one-way matcher behind :func:`is_instance_of` threads: both are applied
by :func:`resolve`.  Every walk over a term goes through
:func:`calang.terms.map_vars` or :func:`calang.terms.iter_vars`.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Collection, Iterable, Optional

from .terms import (
    ANONYMOUS,
    LOCAL,
    SET,
    Num,
    SetTerm,
    Sym,
    Term,
    Tup,
    Var,
    check_set_wellformed,
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

    def newer(self, var: Var) -> bool:
        """True when ``var`` is a generated variable that this store's
        counter has not issued: one that a descendant store made."""
        return var.generated and var.vid[1] >= self._fresh

    def since(self, base: "BindingStore") -> list[Var]:
        """The variables bound after ``base``, an ancestor of this store,
        in binding order."""
        added = len(self._bindings) - len(base._bindings)
        return list(islice(reversed(self._bindings), added))[::-1]

    def items(self):
        return self._bindings.items()

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


def _set_view(t: Term, store: BindingStore) -> Optional[SetTerm]:
    """The resolved ``SetTerm`` that a set operand stands for: the set
    itself or a variable's binding.  Anything else yields None, which
    callers turn into failure: a raw ``\\union`` tuple, an ill-formed set,
    or one with a union variable that resolution left bound to an individual.
    """
    if isinstance(t, SetTerm):
        r = resolve(t, store)
        if check_set_wellformed(r) or any(store.is_bound(v) for v in r.union_vars):
            return None
        return r
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
    written = t1, t2  # a set operand goes to unify_sets as written

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
        return unify_sets(*written, store, frozen, _filter=_filter)

    match t1, t2:
        case (Num(), Num()) | (Sym(), Sym()):
            return [store] if t1 == t2 else []
        case (Tup(), Tup()):
            if len(t1.members) != len(t2.members):
                return []
            # With nothing to report, the filter keeps the first store: each
            # member stops at its first solution (rule (a)).
            rvars = _relevant_vars([t1, t2], store, _hidden_vars(written)) if _filter else []
            stores = [store]
            for a, b in zip(t1.members, t2.members):
                stores = [s2 for s in stores
                          for s2 in unify(a, b, s, frozen, _filter=_filter and not rvars)]
                if not stores:
                    return []
            return _prune(stores, rvars) if rvars and len(stores) > 1 else stores
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
    ever bound to set terms.  ``_filter=False`` returns every candidate
    unfiltered, the full enumeration; with the filter, a flat
    equation builds only the candidates it could keep, and the answer is
    minimal on every variable but the hidden ones, the ``$_`` written in
    ``s1`` and ``s2``.  Each pair of elements is unified once per store.
    With the filter, the walk also stops at its first solution when no
    variable but a hidden one is left (rule (a)), compares two ground
    elements instead of unifying them (rule (b)), and, lean, never lets a
    union variable absorb an element that the other side pairs with
    (rule (c)).  The module docstring proves that each rule keeps
    the answer and its order.
    """
    if store is None:
        store = BindingStore()
    v1 = _set_view(s1, store)
    v2 = _set_view(s2, store)
    if v1 is None or v2 is None:
        return []
    if v1 == v2:
        return [store]  # the empty substitution, the one most general unifier

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
    # A flat equation that filters its own answer builds only what the
    # filter could keep.
    lean = _filter and not any(u in union_vars for e in A + B for u in iter_vars(e))
    hidden = _hidden_vars((s1, s2))
    absorbed: dict[Var, list[Term]] = {v: [] for v in union_vars}
    chosen: list[Optional[tuple]] = [None] * len(options)
    pairs: dict[tuple, list[BindingStore]] = {}
    solutions: list[BindingStore] = []
    rvars = _relevant_vars([v1, v2], store, hidden) if _filter else []
    # With no variable to report, every candidate keys alike and the
    # filter keeps the first: the walk stops there.
    first = _filter and not rvars

    def pair(i: int, j: int, s: BindingStore) -> list[BindingStore]:
        # A[i] ~ B[j] under s, unified once per store; two ground elements
        # by equality.  A pair that fails under the entry store fails
        # under every extension of it.
        a, b = A[i], B[j]
        if a.ground and b.ground:
            return [s] if a == b else []
        got = pairs.get((i, j, s))
        if got is None:
            fails = s is not store and not pair(i, j, store)
            got = pairs[i, j, s] = [] if fails else unify(a, b, s, frozen, _filter=False)
        return got

    def walk(k: int, stores: list[BindingStore]):
        # The witness choices from the k-th element on, in the order of the
        # full product of choices.
        if k == len(options):
            for s in stores:
                start_extras(s)
                if first and solutions:
                    return
            return
        element = A[k] if k < len(A) else B[k - len(A)]
        # Rule (c): a right element pairs with no absorbed left element,
        # and goes into no union variable once a left element pairs with it.
        right = lean and k >= len(A)
        paired = right and ("pair", k - len(A)) in chosen[:len(A)]
        for choice in options[k]:
            kind, target = choice
            if right and (paired if kind == "absorb" else chosen[target][0] == "absorb"):
                continue
            chosen[k] = choice
            nxt = stores
            if kind == "absorb":
                absorbed[target].append(element)
            # A pair that both of its elements chose is unified only once.
            elif k < len(A) or chosen[target] != ("pair", k - len(A)):
                i, j = (k, target) if k < len(A) else (target, k - len(A))
                nxt = [s2 for s in stores for s2 in pair(i, j, s)]
            if nxt:
                walk(k + 1, nxt)
            if kind == "absorb":
                absorbed[target].pop()
            if first and solutions:
                return

    def start_extras(s: BindingStore):
        # The extras and remainders of one witness store.  Each left/right
        # pair of union variables shares a remainder; a variable occurring
        # on both sides gets a private one.
        known = list(dict.fromkeys(resolve(e, s) for e in A + B))
        held = {v: {resolve(e, s) for e in absorbed[v]} for v in union_vars}
        remainders: dict[Var, list[Var]] = {v: [] for v in union_vars}
        for u in U:
            for w in W:
                nv, s = s.fresh_union_var()
                remainders[u].append(nv)
                if u != w:
                    remainders[w].append(nv)
        bind_extras(0, s, known, held, remainders)

    def bind_extras(i: int, s: BindingStore, known: list, held: dict, remainders: dict):
        # The union variables from the i-th on, each bound to the elements
        # the witness absorbed into it, one choice of extras and its
        # remainders.  ``held`` has each variable's known elements so far:
        # those absorbed, and the extras of the variables before the i-th.
        if i == len(union_vars):
            solutions.append(s)
            return
        v = union_vars[i]
        own = held[v]
        # Leave out the extras that v holds and, lean, those a remainder
        # supplies: what a variable sharing a remainder with v holds, and
        # anything when v's remainder is private or v is hidden.
        if not lean:
            supplied = own
        elif v in hidden or (v in U and v in W):
            supplied = set(known)
        else:
            supplied = own.union(*(held[p] for p in (W if v in U else U)))
        forced = [resolve(e, s) for e in absorbed[v]]
        for extra in _subsets([e for e in known if e not in supplied]):
            held[v] = own.union(extra)
            value = SetTerm(forced + list(extra), remainders[v])
            if s.binding(v) is not None:
                nxt = unify(v, value, s, frozen, _filter=False)
            else:
                b = _bind(s, v, value, frozen)
                nxt = [b] if b is not None else []
            for s2 in nxt:
                bind_extras(i + 1, s2, known, held, remainders)
            if first and solutions:
                break
        held[v] = own

    walk(0, [store])
    if not _filter:
        return solutions
    if first:
        return solutions[:1]
    return _prune(solutions, rvars) if len(solutions) > 1 else solutions


def _subsets(items: list) -> list[tuple]:
    out = [()]
    for it in items:
        out += [prev + (it,) for prev in out]
    return out


# ---------------------------------------------------------------------------
# Solution filtering: duplicates and strictly less general stores
# ---------------------------------------------------------------------------

def _hidden_vars(written: Iterable[Term]) -> set[Var]:
    """Each ``$_`` written in an operand (see the module docstring)."""
    return {v for t in written if not isinstance(t, Var) for v in iter_vars(t) if v.anonymous}


def _relevant_vars(terms: Iterable[Term], store: BindingStore,
                   hidden: Collection[Var] = ()) -> list[Var]:
    out: dict[Var, None] = {}
    for t in terms:
        for v in iter_vars(resolve(t, store)):
            if store.binding(v) is None and v not in hidden:
                out[v] = None
    return list(out)


def solution_snapshot(store: BindingStore, rvars: list[Var],
                      keep: Optional[Callable[[Var], bool]] = None) -> tuple:
    """A hashable fingerprint of what a solution says about ``rvars``.

    Every variable in the resolved values that ``keep`` rejects, by
    default every one outside ``rvars``, becomes a placeholder numbered
    by first appearance, so alpha-equivalent solutions compare equal.
    """
    keep = keep or frozenset(rvars).__contains__
    placeholders: dict[Var, Var] = {}

    def placeholder(v: Var) -> Var:
        if keep(v):
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
            # A lone union variable can stand for an opaque target set,
            # and {} \/ X is X itself.
            if not pattern.elements and len(pattern.union_vars) == 1:
                u = pattern.union_vars[0]
                if resolve(u, sub) == target:
                    yield sub
                else:
                    yield from _match(u, SetTerm((), (target,)), sub)


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


def is_instance_of(specific: list[Term], general: list[Term],
                   renamed: Optional[list[Term]] = None) -> bool:
    """True when the specific value vector is obtainable from the general
    one by substituting for its free variables.

    One substitution must serve every component at once.  A union
    variable of the general side may stand for any part of the matching
    specific set, including elements that the general side's own
    elements already cover: ``[{b} \\/ H, {a, b} \\/ H]`` is an instance
    of ``[{b} \\/ G, {a} \\/ G]`` by ``G := {b} \\/ H``.
    ``renamed``, if given, is ``_rename_apart(specific)``, computed once.
    """
    if not all(map(_keeps_ground_parts, specific, general)):
        return False
    renamed = _rename_apart(specific) if renamed is None else renamed
    return next(_match_all(general, renamed, BindingStore()), None) is not None


def _keeps_ground_parts(specific: Term, general: Term) -> bool:
    """A necessary condition for the matcher, which no substitution can
    change: every ground part of ``general`` survives in ``specific``."""
    if general.ground:
        return general == specific
    if isinstance(general, SetTerm):
        return isinstance(specific, Var) or (isinstance(specific, SetTerm) and all(
            e in specific._key[0] for e in general.elements if e.ground))
    if isinstance(general, Tup):
        return (isinstance(specific, Tup) and len(specific.members) == len(general.members)
                and all(map(_keeps_ground_parts, specific.members, general.members)))
    return True


def _prune(stores: list[BindingStore], rvars: list[Var]) -> list[BindingStore]:
    """The most general of ``stores``, in order, in one pass: skip a store
    whose snapshot was seen or that a kept store subsumes, else drop the
    kept stores it subsumes and keep it (see the module docstring)."""
    seen: set[tuple] = set()
    kept: list[tuple[BindingStore, tuple, list[Term]]] = []
    for s in stores:
        values = solution_snapshot(s, rvars)
        if values in seen:
            continue
        seen.add(values)
        renamed = _rename_apart(values)
        if any(is_instance_of(values, general, renamed) for _, general, _ in kept):
            continue
        kept = [k for k in kept if not is_instance_of(k[1], values, k[2])]
        kept.append((s, values, renamed))
    return [s for s, _, _ in kept]
