"""Compilation of clauses to Horn form and textual export.

A clause with assertions ``A1 .. Ak`` and conditions ``C1 .. Cm`` is the
disjunction of the conjoined assertions with the negated conditions,
which expands to ``k`` Horn clauses: the i-th has head ``Ai`` and body
``C1 .. Cm``.  The export renders one clause per line in ``head :- body``
style with terms in a functor syntax a generic inference engine can read;
negation in the body is the standard implicit Horn reading.

Encoding: numeric relations become binary predicates (``num_eq``, which
is numeric equality only, ``gt``, ``lt``, ``ge``, ``le``, ``ne``); what
evaluation unifies (:attr:`calang.clauses.Predicate.unifies`), a ``:=:``
or a set binding such as ``$d = {a} \\/ $b``, becomes ``eq(T1, T2)``.
Sets export as ``set([...])`` and unions as nested ``union(S, V)``;
operator-headed tuples use their bare names (``times``, ``plus``, ...)
and a tuple with no symbol head is ``tuple(...)``.  A source name
spelled like one of these functors is quoted, as ``'union'(set([a]), V)``
for ``union({a}, $v)``, so no two terms export to the same text.
Variables are renamed apart per source clause, so no two clauses share a
name unless they came from the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .clauses import BoxDeclaration, Clause, Predicate
from .terms import HAT, MINUS, PLUS, SLASH, TIMES, UNION, UNION_SYM, Num, SetTerm, Sym, Term, Tup, Var

_REL_NAMES = {"=": "num_eq", ">": "gt", "<": "lt", ">=": "ge", "<=": "le", "!=": "ne"}
_OP_NAMES = {PLUS: "plus", MINUS: "minus", TIMES: "times", SLASH: "slash", HAT: "hat",
             UNION: "union"}
_RESERVED = frozenset(_OP_NAMES.values()) | {"set", "tuple"}


@dataclass(frozen=True)
class HornClause:
    head: Predicate
    body: tuple[Predicate, ...]


def to_horn(clause: Clause) -> list[HornClause]:
    """Expand one clause into one Horn clause per assertion, each with
    the full condition list as body."""
    return [HornClause(a, clause.conditions) for a in clause.assertions]


# Symbol names recur across clauses; the cache bounds what it keeps.
@lru_cache(maxsize=4096)
def _atom(name: str) -> str:
    if name in _OP_NAMES:
        return _OP_NAMES[name]
    if (name[:1].islower() and name not in _RESERVED
            and all(c.isalnum() or c == "_" for c in name)):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _functor_term(t: Term, names: dict[Var, str], suffix: str) -> str:
    kind = type(t)
    if kind is Sym:
        return _atom(t.name)
    if kind is Var:
        name = names.get(t)
        if name is None:
            base = "Anon" if t.anonymous else t.name.lstrip("_") or "G"
            base = "".join(c if c.isalnum() else "_" for c in base)
            name = names[t] = f"{base[0].upper()}{base[1:]}_{suffix}_{len(names)}"
        return name
    if kind is Num:
        return str(t.value)
    if kind is Tup:
        members = t.members
        head = members[0] if members else None
        if head == UNION_SYM:
            inner = _functor_term(members[1], names, suffix)
            for op in members[2:]:
                inner = f"union({inner}, {_functor_term(op, names, suffix)})"
            return inner
        if type(head) is Sym:
            functor = _atom(head.name)
            args = ", ".join([_functor_term(m, names, suffix) for m in members[1:]])
            return f"{functor}({args})" if args else functor
        return "tuple(" + ", ".join([_functor_term(m, names, suffix) for m in members]) + ")"
    if kind is SetTerm:
        inner = "set([" + ", ".join(
            [_functor_term(e, names, suffix) for e in t.elements]) + "])"
        for v in t.union_vars:
            inner = f"union({inner}, {_functor_term(v, names, suffix)})"
        return inner
    raise TypeError(f"not a term: {t!r}")


def _functor_pred(p: Predicate, names: dict[Var, str], suffix: str) -> str:
    name = "eq" if p.unifies else _REL_NAMES[p.op]
    return (f"{name}({_functor_term(p.lhs, names, suffix)}, "
            f"{_functor_term(p.rhs, names, suffix)})")


def export_horn(decls: Iterable[BoxDeclaration]) -> str:
    """Deterministic textual export of flattened declarations.

    One Horn clause per line; ``%`` comment lines carry provenance.
    UTF-8, LF line endings, byte-identical across runs.  The variable
    name suffix counts source clauses across the whole export, keeping
    names from different clauses apart.
    """
    lines: list[str] = []
    serial = 0
    for decl in decls:
        lines.append(f"% box {decl.name}")
        for ci, clause in enumerate(decl.clauses):
            serial += 1
            lines.append(f"% {decl.name} clause {ci + 1} ({clause.pos})")
            suffix = str(serial)
            names: dict[Var, str] = {}
            body = None
            for hc in to_horn(clause):
                head = _functor_pred(hc.head, names, suffix)
                # Rendered after the first head, so every body variable is
                # named by then; later heads leave the body text unchanged.
                if body is None:
                    body = ", ".join(_functor_pred(p, names, suffix) for p in hc.body)
                lines.append(f"{head} :- {body}." if body else f"{head}.")
        if not decl.clauses:
            lines.append("% (no clauses)")
    return "\n".join(lines) + "\n"
