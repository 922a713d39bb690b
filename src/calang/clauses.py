"""Clause-level semantics: provided-block flattening and box evaluation.

A clause states that its condition (a conjunction of predicates over the
box's input) implies its assertion (a conjunction over its output and
environment).  ``provided Conds use ... end`` distributes the guarding
conditions over every clause inside, so after flattening a declaration
is a flat clause list.

Evaluation walks the clauses in declaration order against one
accumulating store per branch: a later clause sees the associations the
earlier ones made, which is how a local bound by clause 1 is visible to
clause 2.  A predicate is a numeric relation or an equivalence, which is
unified, as its written terms decide (:attr:`Predicate.unifies`).  An
equivalence with several maximally general unifiers forks the branch;
every surviving branch is reported.

Conditions are tests, not wishes: an input object variable that has no
association cannot acquire one inside a condition.  A condition that
would need to bind such a variable simply fails, so a box given no input
information asserts nothing.

Branches that say the same are merged, the first one kept, by
:func:`merge_branches`: a clause's stores after each predicate, a box's
branches after each clause and a network's after each box instance.
A guard such as ``$x :=: {value($v)} \\/ $_`` does not fork on what its
``$_`` holds, as set unification leaves a written ``$_`` out of its
answer (see :mod:`calang.unify`).  Merging inside a clause keeps a guard
that forks on a named variable, such as ``$e`` in
``tests/fixtures/guards.cal``, from multiplying the work of the
predicates after it when its forks say the same; the merge after the
clause still joins branches that grew from different parents.
What a branch says is its *full key*, :func:`branch_snapshot`: every
named variable bound in the store, which in a network is the whole
network's, with its resolved value, unbound variables renamed by first
appearance.  The branches come in groups, each extending one base store:
the store a predicate walk starts from, the box's input store, or the
store of the network branch they grew from.  When every branch binds only the box's own variables and
variables generated past its base's counter, no older binding's resolved
value changes, as none holds an unbound variable of the box or a new one.
Branches of two groups then differ as their bases, already merged, do;
two of one group have equal full keys exactly when they have equal
*local keys*: the box's bound named variables with their resolved
values, in which the box's variables and the new ones are renamed by
first appearance and every older variable keeps its identity,
as the older bindings in the full key pin it.  A local key costs what
the box's values cost, so a merge does not slow down with the chain
upstream of the box.  When some branch binds any other variable, such as
an upstream ``$r`` or an environment file's ``$w`` (a forking connection
does), every branch gets the full key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Optional

from . import syntax
from .arith import PredicateFailure, eval_relation
from .syntax import Declaration, Pos, ProvidedBlock
from .terms import (ENVIRONMENT, SET, Term, Var, VarScope, VarSupply, classify, desugar,
                    iter_vars, term_text)
from .unify import BindingStore, solution_snapshot, unify

ENV_FILE_SPACE = "e"  # the variable space of the terms in an environment file


@dataclass(frozen=True)
class Predicate:
    """A numeric relation, or an equivalence solved by unification."""
    lhs: Term
    op: str
    rhs: Term

    @property
    def unifies(self) -> bool:
        """True for an equivalence: a ``:=:``, or a ``=`` whose written right
        side is a set, ill-formed or not.  No run-time value decides it."""
        return self.op == ":=:" or (self.op == "=" and classify(self.rhs) == SET)

    def __str__(self):
        return f"{term_text(self.lhs)} {self.op} {term_text(self.rhs)}"


@dataclass(frozen=True)
class Clause:
    conditions: tuple[Predicate, ...]
    assertions: tuple[Predicate, ...]
    pos: Pos = field(compare=False)
    # How many leading conditions were inherited from provided blocks.
    inherited: int = field(default=0, compare=False)


class SemanticError(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


@dataclass
class BoxDeclaration:
    """A flattened box: signature, clauses, and the variables they share.

    Local variables are scoped to the whole declaration, so the same
    ``$name`` is one variable across all clauses.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[tuple[str, ...], ...]
    clauses: tuple[Clause, ...]
    object_vars: dict[str, Var]
    env_vars: dict[str, Var]
    pos: Pos
    supply: VarSupply

    @property
    def input_vars(self) -> list[Var]:
        return [self.object_vars[f] for f in self.inputs]

    @cached_property
    def variables(self) -> dict[Var, None]:
        """The box's own variables, in order: its object variables, then
        every other variable of its clauses."""
        preds = [p for c in self.clauses for p in c.conditions + c.assertions]
        return dict.fromkeys([*self.object_vars.values(),
                              *(v for p in preds for t in (p.lhs, p.rhs) for v in iter_vars(t))])


def _desugar_predicate(p: syntax.SurfacePredicate, scope: VarScope) -> Predicate:
    return Predicate(desugar(p.lhs, scope), p.op, desugar(p.rhs, scope))


def flatten_provided(decl: Declaration) -> BoxDeclaration:
    """Flatten provided blocks and resolve variable categories.

    Outer provided conditions come first on each clause; nested blocks
    compose.  Guard conditions are desugared afresh per clause they
    distribute over, so each copy's ``$_`` occurrences are distinct, but
    named variables intern to the same identity across the declaration.
    """
    header = decl.header
    fields: list[str] = []
    for f in header.inputs or ():
        if f in fields:
            raise SemanticError(f"duplicate field name {f!r} in signature", header.pos)
        fields.append(f)
    for tup in header.outputs:
        for f in tup:
            if f not in fields:
                fields.append(f)

    scope = VarScope(object_fields=fields)
    clauses: list[Clause] = []

    def walk(decls, pending):
        for d in decls:
            if isinstance(d, ProvidedBlock):
                walk(d.body, pending + list(d.conditions))
            else:
                inherited = tuple(_desugar_predicate(p, scope) for p in pending)
                own = tuple(_desugar_predicate(p, scope) for p in d.conditions)
                asserts = tuple(_desugar_predicate(p, scope) for p in d.assertions)
                clauses.append(Clause(inherited + own, asserts, d.pos, inherited=len(inherited)))

    walk(decl.decls, [])

    object_vars = {f: scope.lookup(f, 1) for f in fields}
    env_vars = {v.name: v for v in scope.interned() if v.category == ENVIRONMENT}
    return BoxDeclaration(header.name, tuple(header.inputs or ()), header.outputs,
                          tuple(clauses), object_vars, env_vars, header.pos, scope.supply)


def parse_box(source: str) -> BoxDeclaration:
    """Parse and flatten a single box declaration from text."""
    return flatten_provided(syntax.parse_declaration(source))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class Diagnostic:
    severity: str  # "error" | "warning" | "note"
    message: str
    pos: Optional[Pos] = None

    def __str__(self):
        where = f" ({self.pos})" if self.pos else ""
        return f"{self.severity}{where}: {self.message}"


@dataclass
class Branch:
    store: BindingStore
    fired: tuple[int, ...]  # clause indices, in firing order


@dataclass
class Evaluation:
    """The surviving branches of a box or network evaluation, each with a
    ``store`` and the clauses it fired, and what was noted on the way."""
    branches: list
    diagnostics: list[Diagnostic]


def _walk(preds: Iterable[Predicate], store: BindingStore,
          frozen: frozenset[Var] = frozenset(),
          own: Collection[Var] = ()) -> tuple[list[BindingStore], list[tuple]]:
    """Conjoin ``preds`` over ``store``: the stores under which every
    predicate holds, and a ``(reason, predicate)`` pair for each store a
    predicate discarded, the reason being a :class:`PredicateFailure`,
    "cannot hold" (no unifier) or "does not hold" (a false relation).
    After each predicate, the stores that say the same are merged, with
    ``store`` as their base and ``own`` the box's variables (see
    :func:`merge_branches`)."""
    branches = [Branch(store, ())]
    failed: list[tuple] = []
    for p in preds:
        nxt: list[Branch] = []
        for br in branches:
            if p.unifies:
                got = unify(p.lhs, p.rhs, br.store, frozen)
                if not got:
                    failed.append(("cannot hold", p))
                nxt.extend(Branch(s, ()) for s in got)
                continue
            out = eval_relation(p.lhs, p.op, p.rhs, br.store, frozen)
            if isinstance(out, PredicateFailure):
                failed.append((out, p))
                continue
            holds, s = out
            if holds:
                nxt.append(Branch(s, ()))
            else:
                failed.append(("does not hold", p))
        branches = merge_branches([(store, nxt)], own)
        if not branches:
            break
    return [br.store for br in branches], failed


def evaluate_condition(preds: Iterable[Predicate], store: BindingStore,
                       frozen: frozenset[Var] = frozenset(),
                       own: Collection[Var] = ()) -> list[BindingStore]:
    """All stores under which every predicate holds, those that say the
    same merged; empty when the condition is not satisfied."""
    return _walk(preds, store, frozen, own)[0]


@dataclass
class FireResult:
    condition_held: bool
    stores: list[BindingStore]
    failures: list[str]


def fire_clause(clause: Clause, store: BindingStore,
                frozen: frozenset[Var] = frozenset(),
                own: Collection[Var] = ()) -> FireResult:
    """Evaluate one clause: check the condition, then apply assertions.

    Assertions use the same predicate walk with no binding restrictions;
    a failing assertion discards its branch and is reported, since it
    marks an inconsistent specification.  ``own`` is the box's variables,
    by which each walk merges its stores (see :func:`_walk`).
    """
    cond_stores = evaluate_condition(clause.conditions, store, frozen, own)
    if not cond_stores:
        return FireResult(False, [], [])

    result: list[BindingStore] = []
    failures: list[str] = []
    for s in cond_stores:
        stores, failed = _walk(clause.assertions, s, own=own)
        result.extend(stores)
        failures.extend(f"assertion failed ({reason}): {p}" if isinstance(reason, PredicateFailure)
                        else f"assertion {reason}: {p}" for reason, p in failed)
    return FireResult(True, result, failures)


def _observable_vars(store: BindingStore) -> list[Var]:
    # An environment file's variable shows in a bound box variable's value.
    return sorted((v for v, _ in store.items()
                   if not (v.anonymous or v.generated or v.vid[0] == ENV_FILE_SPACE)),
                  key=lambda v: (v.category, v.name, v.vid))


def _snapshot(store: BindingStore, rvars: list[Var],
              keep: Optional[Callable[[Var], bool]] = None) -> tuple:
    return tuple(zip((v.vid for v in rvars), solution_snapshot(store, rvars, keep)))


def branch_snapshot(store: BindingStore) -> tuple:
    """The full key of a branch: every named variable bound anywhere in
    the store with its fully resolved value, anonymous/generated bindings
    ignored.  Its cost grows with the store, so with the network."""
    return _snapshot(store, _observable_vars(store))


def evaluate_box(decl: BoxDeclaration, inputs: Optional[BindingStore] = None) -> Evaluation:
    """Evaluate every clause, in order, against the input associations.

    Clause effects accumulate per branch; a clause whose condition fails
    leaves the branch unchanged, and a clause whose assertions cannot
    hold discards it.  Inside a clause, stores that say the same are
    merged after each predicate; after each clause, so are branches.
    """
    store = inputs if inputs is not None else BindingStore()
    frozen = frozenset(decl.input_vars)
    branches = [Branch(store, ())]
    diagnostics: list[Diagnostic] = []

    for idx, clause in enumerate(decl.clauses):
        label = f"clause {idx + 1}"
        nxt: list[Branch] = []
        fired_somewhere = False
        for br in branches:
            fr = fire_clause(clause, br.store, frozen, decl.variables)
            for msg in fr.failures:
                diagnostics.append(Diagnostic("warning", f"{label}: {msg}", clause.pos))
            if not fr.condition_held:
                nxt.append(br)
                continue
            fired_somewhere = True
            if not fr.stores:
                # Condition held but no assertion branch survived.
                continue
            for s in fr.stores:
                nxt.append(Branch(s, br.fired + (idx,)))
        if not fired_somewhere:
            diagnostics.append(Diagnostic("note", f"{label}: condition not satisfied", clause.pos))
        branches = merge_branches([(store, nxt)], decl.variables)

    if not branches:
        diagnostics.append(Diagnostic(
            "warning", f"box {decl.name}: no consistent evaluation branch", decl.pos))
    return Evaluation(branches, diagnostics)


def merge_branches(groups: list[tuple[BindingStore, list]], own: Collection[Var]) -> list:
    """Drop every branch that says the same as an earlier one, in order.

    ``groups`` pairs a base store with the branches, a clause's stores, a
    box's or a network's, that extend it.  The key is the group with the local key
    over ``own``, or else the full key (see the module docstring).
    """
    if sum(len(branches) for _, branches in groups) < 2:
        return [br for _, branches in groups for br in branches]

    def local(base: BindingStore, v: Var) -> bool:
        return v in own or base.newer(v)

    if all(local(base, v) for base, branches in groups
           for br in branches for v in br.store.since(base)):
        def key(i: int, base: BindingStore, store: BindingStore) -> tuple:
            rvars = [v for v in own if not v.anonymous and store.is_bound(v)]
            return i, _snapshot(store, rvars, lambda v: not local(base, v))
    else:
        def key(i: int, base: BindingStore, store: BindingStore) -> tuple:
            return branch_snapshot(store)

    seen = set()
    out = []
    for i, (base, branches) in enumerate(groups):
        for br in branches:
            k = key(i, base, br.store)
            if k not in seen:
                seen.add(k)
                out.append(br)
    return out
