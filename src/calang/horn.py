"""Compilation of clauses to Horn form and textual export.

A clause with assertions ``A1 .. Ak`` and conditions ``C1 .. Cm`` is the
disjunction of the conjoined assertions with the negated conditions,
which expands to ``k`` Horn clauses: the i-th has head ``Ai`` and body
``C1 .. Cm``.  The export renders one clause per line in ``head :- body``
style with terms in a functor syntax a generic inference engine can read;
negation in the body is the standard implicit Horn reading.

Encoding: relations become binary predicates (``num_eq``, ``gt``, ``lt``,
``ge``, ``le``, ``ne``), equivalences become ``eq(T1, T2)``; sets export
as ``set([...])`` and unions as nested ``union(S, V)``; operator-headed
tuples use their bare names (``times``, ``plus``, ...).  Variables are
renamed apart per source clause, so no two clauses share a name unless
they came from the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .clauses import BoxDeclaration, Clause, Predicate, Relation
from .terms import HAT, MINUS, PLUS, SLASH, TIMES, UNION, UNION_SYM, Num, SetTerm, Sym, Term, Tup, Var

_REL_NAMES = {"=": "num_eq", ">": "gt", "<": "lt", ">=": "ge", "<=": "le", "!=": "ne"}
_OP_NAMES = {PLUS: "plus", MINUS: "minus", TIMES: "times", SLASH: "slash", HAT: "hat",
             UNION: "union"}


@dataclass(frozen=True)
class HornClause:
    head: Predicate
    body: tuple[Predicate, ...]


def to_horn(clause: Clause) -> list[HornClause]:
    """Expand one clause into one Horn clause per assertion, each with
    the full condition list as body."""
    return [HornClause(a, clause.conditions) for a in clause.assertions]


def _atom(name: str) -> str:
    if name and (name[0].islower() and name.replace("_", "").isalnum() and
                 all(c.isalnum() or c == "_" for c in name)):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _functor_term(t: Term, names: dict[Var, str], suffix: str) -> str:
    match t:
        case Num():
            return str(t.value)
        case Sym():
            return _atom(_OP_NAMES.get(t.name, t.name))
        case Var():
            if t not in names:
                base = "Anon" if t.anonymous else t.name.lstrip("_") or "G"
                base = "".join(c if c.isalnum() else "_" for c in base)
                names[t] = f"{base[0].upper()}{base[1:]}_{suffix}_{len(names)}"
            return names[t]
        case SetTerm():
            inner = "set([" + ", ".join(
                _functor_term(e, names, suffix) for e in t.elements) + "])"
            for v in t.union_vars:
                inner = f"union({inner}, {_functor_term(v, names, suffix)})"
            return inner
        case Tup() if t.members and t.head == UNION_SYM:
            inner = _functor_term(t.members[1], names, suffix)
            for op in t.members[2:]:
                inner = f"union({inner}, {_functor_term(op, names, suffix)})"
            return inner
        case Tup() if t.members and isinstance(t.head, Sym):
            head = _atom(_OP_NAMES.get(t.head.name, t.head.name))
            args = ", ".join(_functor_term(m, names, suffix) for m in t.members[1:])
            return f"{head}({args})" if args else head
        case Tup():
            args = ", ".join(_functor_term(m, names, suffix) for m in t.members)
            return f"tuple({args})"
    raise TypeError(f"not a term: {t!r}")


def _functor_pred(p: Predicate, names: dict[Var, str], suffix: str) -> str:
    if isinstance(p, Relation):
        name = _REL_NAMES[p.op]
        return (f"{name}({_functor_term(p.lhs, names, suffix)}, "
                f"{_functor_term(p.rhs, names, suffix)})")
    return (f"eq({_functor_term(p.lhs, names, suffix)}, "
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
