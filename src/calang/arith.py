"""Exact rational evaluation of terms and relation predicates.

Numeric values are exact rationals plus three extended values: positive
and negative infinity and "unknown".  Unknown absorbs through every
builtin; comparisons against it cannot be established and fail the
predicate.  Failure is a verdict (:class:`PredicateFailure`), never an
exception: the enclosing predicate simply does not hold.  Relations are
numeric: a set fails one (``set-in-arith``), and equivalences are
unified instead (see :attr:`calang.clauses.Predicate.unifies`).

The complexity vocabulary stays symbolic wherever exactness would be
lost: ``log`` only evaluates on integer powers of two (base 2) and ``^``
only on integer exponents; anything else evaluates to unknown and is
carried as a term.  So does an exact result whose numerator or
denominator has more than ``syntax.MAX_DIGITS`` digits.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .syntax import MAX_DIGITS, writable
from .terms import (
    HAT,
    MINUS,
    PLUS,
    SLASH,
    TIMES,
    UNION_SYM,
    Num,
    SetTerm,
    Sym,
    Term,
    Tup,
    Var,
    term_text,
)
from .unify import BindingStore, resolve


class Special(enum.Enum):
    POS_INF = "infinity"
    NEG_INF = "-infinity"
    UNKNOWN = "unknown"

    def __str__(self):
        return self.value


POS_INF = Special.POS_INF
NEG_INF = Special.NEG_INF
UNKNOWN = Special.UNKNOWN

NumericValue = Union[Fraction, Special]

# The paper-facing "maximum integer" constant.
MAXINT = Fraction(2**63 - 1)

DEFAULT_CONSTANTS: dict[str, NumericValue] = {
    "maxint": MAXINT,
    "infinity": POS_INF,
    "unknown": UNKNOWN,
}


@dataclass(frozen=True)
class PredicateFailure:
    """Why a predicate could not be established.  A verdict, not an error."""

    reason: str
    detail: str = ""

    def __str__(self):
        return f"{self.reason}: {self.detail}" if self.detail else self.reason


SET_IN_ARITH = "set-in-arith"
UNKNOWN_SYMBOL = "unknown-symbol"
UNBOUND_VARIABLE = "unbound-variable"
UNKNOWN_FUNCTION = "unknown-function"
VARIABLE_HEAD = "variable-head"
ARITY = "arity"
DIVISION_BY_ZERO = "division-by-zero"
UNKNOWN_COMPARISON = "unknown-comparison"
FROZEN_VARIABLE = "frozen-variable"

_ARITY = {PLUS: (2, 2), MINUS: (1, 2), TIMES: (2, 2), SLASH: (2, 2), HAT: (2, 2),
          "log": (1, 1), "\\log": (1, 1)}


def _sign(v: NumericValue) -> int:
    if v is POS_INF:
        return 1
    if v is NEG_INF:
        return -1
    return (v > 0) - (v < 0)


def _inf(sign: int) -> NumericValue:
    return POS_INF if sign > 0 else NEG_INF


def apply_builtin(name: str, args: list[NumericValue]) -> Union[NumericValue, PredicateFailure]:
    """Apply a builtin numeric function to evaluated arguments.

    Field operations are exact on rationals; infinities follow extended
    real conventions with indeterminate forms going to unknown; an
    unknown argument makes the result unknown.
    """
    bounds = _ARITY.get(name)
    if bounds is None:
        return PredicateFailure(UNKNOWN_FUNCTION, name)
    lo, hi = bounds
    if not (lo <= len(args) <= hi):
        return PredicateFailure(ARITY, f"{name} takes {lo}..{hi} arguments, got {len(args)}")
    if any(a is UNKNOWN for a in args):
        return UNKNOWN

    finite = [a for a in args if isinstance(a, Fraction)]
    all_finite = len(finite) == len(args)

    if name == PLUS:
        a, b = args
        if all_finite:
            return a + b
        if a is not b and not all_finite and {a, b} >= {POS_INF, NEG_INF}:
            return UNKNOWN
        return a if isinstance(b, Fraction) else b if isinstance(a, Fraction) else a
    if name == MINUS:
        if len(args) == 1:
            (a,) = args
            return -a if isinstance(a, Fraction) else _inf(-_sign(a))
        a, b = args
        neg_b = -b if isinstance(b, Fraction) else _inf(-_sign(b))
        return apply_builtin(PLUS, [a, neg_b])
    if name == TIMES:
        a, b = args
        if all_finite:
            return a * b
        if _sign(a) == 0 or _sign(b) == 0:
            return UNKNOWN  # 0 * infinity
        return _inf(_sign(a) * _sign(b))
    if name == SLASH:
        a, b = args
        if isinstance(b, Fraction) and b == 0:
            return PredicateFailure(DIVISION_BY_ZERO, "division by zero")
        if all_finite:
            return a / b
        if isinstance(a, Fraction):
            return Fraction(0)  # finite / infinity
        if isinstance(b, Fraction):
            return _inf(_sign(a) * _sign(b))
        return UNKNOWN  # infinity / infinity
    if name == HAT:
        base, expo = args
        if not all_finite:
            return UNKNOWN
        if expo.denominator != 1:
            return UNKNOWN  # kept symbolic; see module docstring
        e = expo.numerator
        if base == 0 and e < 0:
            return PredicateFailure(DIVISION_BY_ZERO, "zero raised to a negative power")
        # The result's numerator or denominator is at least 2 ** (bits * |e|):
        # refuse one surely too long to write out before computing it.
        bits = max(abs(base.numerator), base.denominator).bit_length() - 1
        if bits * abs(e) > 4 * MAX_DIGITS:
            return UNKNOWN
        return base ** e
    # log: exact only on positive integer powers of two (base 2).
    (a,) = args
    if not isinstance(a, Fraction):
        return UNKNOWN
    if a.denominator == 1 and a.numerator > 0:
        n = a.numerator
        if n & (n - 1) == 0:
            return Fraction(n.bit_length() - 1)
    return UNKNOWN


def eval_numeric(t: Term, store: Optional[BindingStore] = None
                 ) -> Union[NumericValue, PredicateFailure]:
    """Evaluate a term arithmetically.

    Sets fail; symbols must name a standard constant; variables must be
    bound to something evaluable; a tuple's head names a builtin function
    applied to the evaluated members, left to right.
    """
    if store is None:
        store = BindingStore()

    match t:
        case SetTerm():
            return PredicateFailure(SET_IN_ARITH, term_text(t))
        case Num():
            return t.value
        case Sym():
            value = DEFAULT_CONSTANTS.get(t.name)
            if value is None:
                return PredicateFailure(UNKNOWN_SYMBOL, t.name)
            return value
        case Var():
            b = store.binding(t)
            if b is None:
                return PredicateFailure(UNBOUND_VARIABLE, t.name)
            return eval_numeric(b, store)
        case Tup():
            if not t.members:
                return PredicateFailure(UNKNOWN_FUNCTION, "()")
            if t.head == UNION_SYM:
                return PredicateFailure(SET_IN_ARITH, term_text(t))
            head = t.head
            if isinstance(head, Var):
                return PredicateFailure(VARIABLE_HEAD, head.name)
            if not isinstance(head, Sym):
                return PredicateFailure(UNKNOWN_FUNCTION, term_text(head))
            args: list[NumericValue] = []
            for m in t.members[1:]:
                v = eval_numeric(m, store)
                if isinstance(v, PredicateFailure):
                    return v
                args.append(v)
            value = apply_builtin(head.name, args)
            if isinstance(value, Fraction) and not writable(value):
                return UNKNOWN  # too long to write out: carried as its term
            return value
    return PredicateFailure(UNKNOWN_FUNCTION, repr(t))


_COMPARISONS = {"=": operator.eq, "!=": operator.ne, ">": operator.gt, "<": operator.lt,
                ">=": operator.ge, "<=": operator.le}


def _compare(op: str, a: NumericValue, b: NumericValue) -> Union[bool, PredicateFailure]:
    if a is UNKNOWN or b is UNKNOWN:
        return PredicateFailure(UNKNOWN_COMPARISON, "comparison against unknown")

    def rank(v: NumericValue):
        if v is NEG_INF:
            return (-1, Fraction(0))
        if v is POS_INF:
            return (1, Fraction(0))
        return (0, v)

    compare = _COMPARISONS.get(op)
    if compare is None:
        raise ValueError(f"unknown relational operator {op!r}")
    return compare(rank(a), rank(b))


def eval_relation(lhs: Term, op: str, rhs: Term, store: Optional[BindingStore] = None,
                  frozen: frozenset[Var] = frozenset()
                  ) -> Union[tuple[bool, BindingStore], PredicateFailure]:
    """Evaluate a relation, possibly extending the store.

    The one write path is the functional reading of ``=``: with an
    unbound left-hand variable, the right-hand side's value is bound to
    it and the relation holds.  A finite value binds as a number; an
    extended or unknown value binds the resolved right-hand term itself
    (complexity expressions stay symbolic); a set value, even a variable's,
    fails with ``set-in-arith``.  Everything else is a pure comparison.
    """
    if store is None:
        store = BindingStore()

    if op == "=" and isinstance(lhs, Var):
        target = resolve(lhs, store)
        if isinstance(target, Var):
            if target in frozen:
                return PredicateFailure(FROZEN_VARIABLE, target.name)
            rhs_value = eval_numeric(rhs, store)
            if isinstance(rhs_value, Fraction):
                return True, store.bind(target, Num(rhs_value))
            if rhs_value in (POS_INF, NEG_INF, UNKNOWN):
                return True, store.bind(target, resolve(rhs, store))
            return rhs_value

    lhs_value = eval_numeric(lhs, store)
    if isinstance(lhs_value, PredicateFailure):
        return lhs_value
    rhs_value = eval_numeric(rhs, store)
    if isinstance(rhs_value, PredicateFailure):
        return rhs_value
    verdict = _compare(op, lhs_value, rhs_value)
    if isinstance(verdict, PredicateFailure):
        return verdict
    return verdict, store
