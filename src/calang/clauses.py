"""Clause-level semantics: provided-block flattening and box evaluation.

A clause states that its condition (a conjunction of predicates over the
box's input) implies its assertion (a conjunction over its output and
environment).  ``provided Conds use ... end`` distributes the guarding
conditions over every clause inside, so after flattening a declaration
is a flat clause list.

Evaluation walks the clauses in declaration order against one
accumulating store per branch: a later clause sees the associations the
earlier ones made, which is how a local bound by clause 1 is visible to
clause 2.  Equivalences with several maximally general unifiers fork the
branch; every surviving branch is reported.

Conditions are tests, not wishes: an input object variable that has no
association cannot acquire one inside a condition.  A condition that
would need to bind such a variable simply fails, so a box given no input
information asserts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import syntax
from .arith import PredicateFailure, eval_relation
from .syntax import Declaration, Pos, ProvidedBlock
from .terms import ENVIRONMENT, Term, Var, VarScope, VarSupply, desugar, term_text
from .unify import BindingStore, solution_snapshot, unify


@dataclass(frozen=True)
class Relation:
    lhs: Term
    op: str
    rhs: Term

    def __str__(self):
        return f"{term_text(self.lhs)} {self.op} {term_text(self.rhs)}"


@dataclass(frozen=True)
class Equivalence:
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{term_text(self.lhs)} :=: {term_text(self.rhs)}"


Predicate = Union[Relation, Equivalence]


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

    def env_var(self, name: str) -> Var:
        """The environment variable ``$$name``, interning it on demand so
        inputs can be supplied even when no clause mentions the name."""
        v = self.env_vars.get(name)
        if v is None:
            v = self.supply.fresh(name, ENVIRONMENT)
            self.env_vars[name] = v
        return v


def _desugar_predicate(p, scope: VarScope) -> Predicate:
    if isinstance(p, syntax.RelationP):
        return Relation(desugar(p.lhs, scope), p.op, desugar(p.rhs, scope))
    return Equivalence(desugar(p.lhs, scope), desugar(p.rhs, scope))


def flatten_provided(decl: Declaration, supply: Optional[VarSupply] = None) -> BoxDeclaration:
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

    scope = VarScope(supply or VarSupply(), object_fields=fields)
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


def parse_box(source: str, supply: Optional[VarSupply] = None) -> BoxDeclaration:
    """Parse and flatten a single box declaration from text."""
    return flatten_provided(syntax.parse_declaration(source), supply)


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
class BoxEvaluation:
    decl: BoxDeclaration
    inputs: BindingStore
    branches: list[Branch]
    diagnostics: list[Diagnostic]


def _walk(preds: Iterable[Predicate], store: BindingStore,
          frozen: frozenset[Var] = frozenset()) -> tuple[list[BindingStore], list[tuple]]:
    """Conjoin ``preds`` over ``store``: the stores under which every
    predicate holds, and a ``(reason, predicate)`` pair for each store a
    predicate discarded, the reason being a :class:`PredicateFailure`,
    "cannot hold" (no unifier) or "does not hold" (a false relation)."""
    stores = [store]
    failed: list[tuple] = []
    for p in preds:
        nxt: list[BindingStore] = []
        for s in stores:
            if isinstance(p, Equivalence):
                got = unify(p.lhs, p.rhs, s, frozen)
                if not got:
                    failed.append(("cannot hold", p))
                nxt.extend(got)
                continue
            out = eval_relation(p.lhs, p.op, p.rhs, s, frozen)
            if isinstance(out, PredicateFailure):
                failed.append((out, p))
                continue
            holds, s2 = out
            if holds:
                nxt.append(s2)
            else:
                failed.append(("does not hold", p))
        stores = nxt
        if not stores:
            break
    return stores, failed


def evaluate_condition(preds: Iterable[Predicate], store: BindingStore,
                       frozen: frozenset[Var] = frozenset()) -> list[BindingStore]:
    """All stores under which every predicate holds; empty when the
    condition is not satisfied."""
    return _walk(preds, store, frozen)[0]


@dataclass
class FireResult:
    condition_held: bool
    stores: list[BindingStore]
    failures: list[str]


def fire_clause(clause: Clause, store: BindingStore,
                frozen: frozenset[Var] = frozenset()) -> FireResult:
    """Evaluate one clause: check the condition, then apply assertions.

    Assertions use the same predicate walk with no binding restrictions;
    a failing assertion discards its branch and is reported, since it
    marks an inconsistent specification.
    """
    cond_stores = evaluate_condition(clause.conditions, store, frozen)
    if not cond_stores:
        return FireResult(False, [], [])

    result: list[BindingStore] = []
    failures: list[str] = []
    for s in cond_stores:
        stores, failed = _walk(clause.assertions, s)
        result.extend(stores)
        failures.extend(f"assertion failed ({reason}): {p}" if isinstance(reason, PredicateFailure)
                        else f"assertion {reason}: {p}" for reason, p in failed)
    return FireResult(True, result, failures)


def _observable_vars(store: BindingStore) -> list[Var]:
    out = []
    for v in store.variables():
        if v.anonymous or v.generated:
            continue
        out.append(v)
    out.sort(key=lambda v: (v.category, v.name, v.vid))
    return out


def branch_snapshot(store: BindingStore) -> tuple:
    """Fingerprint of a branch's observable content: every named variable
    with its fully resolved value, anonymous/generated bindings ignored."""
    rvars = _observable_vars(store)
    snap = solution_snapshot(store, rvars)
    return tuple(zip((v.vid for v in rvars), snap))


def evaluate_box(decl: BoxDeclaration, inputs: Optional[BindingStore] = None) -> BoxEvaluation:
    """Evaluate every clause, in order, against the input associations.

    Clause effects accumulate per branch; a clause whose condition fails
    leaves the branch unchanged, and a clause whose assertions cannot
    hold discards it.  Branches that agree on every named variable are
    merged.
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
            fr = fire_clause(clause, br.store, frozen)
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
        branches = merge_branches(nxt)

    if not branches:
        diagnostics.append(Diagnostic(
            "warning", f"box {decl.name}: no consistent evaluation branch", decl.pos))
    return BoxEvaluation(decl, store, branches, diagnostics)


def merge_branches(branches: list) -> list:
    """Drop branches whose stores say the same as an earlier one's.

    Serves box branches and network branches alike: both carry a
    ``store``.  Order is preserved.
    """
    if len(branches) < 2:
        return branches
    seen = set()
    out = []
    for br in branches:
        key = branch_snapshot(br.store)
        if key in seen:
            continue
        seen.add(key)
        out.append(br)
    return out


def input_store(decl: BoxDeclaration, fields: dict[str, Term] = None,
                env: dict[str, Term] = None,
                base: Optional[BindingStore] = None) -> BindingStore:
    """Build the input store for :func:`evaluate_box` from field and
    environment variable associations.  A variable that ``base`` already
    binds keeps its value."""
    store = base if base is not None else BindingStore()
    for name, term in (fields or {}).items():
        var = decl.object_vars.get(name)
        if var is None:
            raise KeyError(f"box {decl.name} has no field {name!r}")
        if not store.is_bound(var):
            store = store.bind(var, term)
    for name, term in (env or {}).items():
        var = decl.env_var(name)
        if not store.is_bound(var):
            store = store.bind(var, term)
    return store
