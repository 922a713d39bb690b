"""The core term algebra.

Terms are immutable trees over five constructors:

* ``Num``     -- an exact rational, always in lowest terms,
* ``Sym``     -- a symbol; plain identifiers plus the reserved backslash
  operator names (``\\plus``, ``\\minus``, ``\\times``, ``\\slash``,
  ``\\hat``, ``\\union``) that surface syntax cannot spell directly,
* ``Var``     -- a variable with a session-unique identity,
* ``Tup``     -- an ordered tuple,
* ``SetTerm`` -- a flat set: member terms plus a list of union variables.

Every term has a ``ground`` flag, true when no variable occurs in it.
There are two mutually incoercible kinds of term: sets and individuals.
``desugar`` lowers surface trees from :mod:`calang.syntax` into this
algebra: infix operators become operator-headed tuples, head-extraction
sugar is flattened, and ``\\/`` chains collapse into the flat-set form
``{t1, ..., tn} \\/ v1 \\/ ... \\/ vq`` whenever the operands allow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import is_
from typing import Callable, Iterable, Iterator, Optional, Union

from . import syntax

# Variable categories.
OBJECT = "object"
ENVIRONMENT = "environment"
LOCAL = "local"
ANONYMOUS = "anonymous"

# Reserved operator symbols.
PLUS = "\\plus"
MINUS = "\\minus"
TIMES = "\\times"
SLASH = "\\slash"
HAT = "\\hat"
UNION = "\\union"

INFIX_SYMBOL = {"+": PLUS, "-": MINUS, "*": TIMES, "/": SLASH, "^": HAT, "\\/": UNION}

# Term kinds.
INDIVIDUAL = "individual"
SET = "set"


# Hashes and groundness flags are cached on first use, not at
# construction: most terms built during unification are never hashed.

def _cache(term, attr: str, value):
    object.__setattr__(term, attr, value)
    return value


@dataclass(frozen=True)
class Num:
    value: Fraction
    ground = True
    _hash = None

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    def __hash__(self):
        h = self._hash
        return h if h is not None else _cache(self, "_hash", hash((self.value,)))


@dataclass(frozen=True)
class Sym:
    name: str
    ground = True


# Symbols compared against on hot paths, built once.
UNION_SYM = Sym(UNION)
MINUS_SYM = Sym(MINUS)
_INFIX_SYM = {op: Sym(name) for op, name in INFIX_SYMBOL.items()}


@dataclass(frozen=True)
class Var:
    """A variable.  Identity is the ``vid``; name and category are display
    and scoping metadata only, so two parses of the same source yield
    distinct variables."""

    vid: tuple[str, int]
    name: str = field(compare=False)
    category: str = field(compare=False)
    ground = False

    def __hash__(self):
        return hash(self.vid)

    @property
    def anonymous(self) -> bool:
        return self.category == ANONYMOUS

    @property
    def generated(self) -> bool:
        return self.vid[0] == "g"


@dataclass(frozen=True)
class Tup:
    members: tuple["Term", ...]
    _hash = None
    _ground = None

    @property
    def head(self) -> "Term":
        return self.members[0]

    @property
    def ground(self) -> bool:
        """True when no variable occurs anywhere inside."""
        g = self._ground
        return g if g is not None else _cache(
            self, "_ground", all(m.ground for m in self.members))

    def __hash__(self):
        h = self._hash
        return h if h is not None else _cache(self, "_hash", hash((self.members,)))


class SetTerm:
    """A flat set ``{e1, ..., en} \\/ v1 \\/ ... \\/ vq``.

    Duplicate elements and duplicate union variables collapse on
    construction.  Equality ignores element order and treats the union
    variable list as a set; the stored order is kept for deterministic
    display.
    """

    __slots__ = ("elements", "union_vars", "_key", "_hash", "_ground")

    def __init__(self, elements: Iterable["Term"] = (), union_vars: Iterable[Var] = ()):
        elems, uvars = tuple(elements), tuple(union_vars)
        key = (frozenset(elems), frozenset(uvars))
        # Members are hashed once, for the key; only a term that has
        # duplicates is walked a second time.
        if len(key[0]) != len(elems):
            elems = tuple(dict.fromkeys(elems))
        if len(key[1]) != len(uvars):
            uvars = tuple(dict.fromkeys(uvars))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "union_vars", uvars)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ground", None)

    def __setattr__(self, name, value):
        raise AttributeError("SetTerm is immutable")

    @property
    def ground(self) -> bool:
        """True when there are no union variables and no variable occurs
        in any element."""
        g = self._ground
        return g if g is not None else _cache(
            self, "_ground", not self.union_vars and all(e.ground for e in self.elements))

    def __eq__(self, other):
        return isinstance(other, SetTerm) and self._key == other._key

    def __hash__(self):
        h = self._hash
        return h if h is not None else _cache(self, "_hash", hash(self._key))

    def __repr__(self):
        return f"SetTerm({list(self.elements)!r}, {list(self.union_vars)!r})"


Term = Union[Num, Sym, Var, Tup, SetTerm]


class VarSupply:
    """Allocates variables with session-unique identities.

    One supply per parsing/evaluation session; not safe for concurrent
    writers, by design.
    """

    def __init__(self, space: str = "d"):
        self.space = space
        self.count = 0

    def fresh(self, name: str, category: str) -> Var:
        v = Var((self.space, self.count), name, category)
        self.count += 1
        return v

    def fresh_anonymous(self) -> Var:
        return self.fresh("_", ANONYMOUS)


class VarScope:
    """Interns surface variable references for one declaration.

    The same ``$name`` always maps to the same :class:`Var` within a
    scope; every ``$_`` occurrence maps to a distinct fresh variable.
    Names matching a signature field are object variables, ``$$`` names
    are environment variables, the rest are locals.
    """

    def __init__(self, supply: Optional[VarSupply] = None, object_fields: Iterable[str] = ()):
        self.supply = supply or VarSupply()
        self.object_fields = frozenset(object_fields)
        self._interned: dict[tuple[int, str], Var] = {}

    def lookup(self, name: str, dollars: int) -> Var:
        if dollars == 1 and name == "_":
            return self.supply.fresh_anonymous()
        key = (dollars, name)
        v = self._interned.get(key)
        if v is None:
            if dollars == 2:
                category = ENVIRONMENT
            elif name in self.object_fields:
                category = OBJECT
            else:
                category = LOCAL
            v = self.supply.fresh(name, category)
            self._interned[key] = v
        return v

    def known(self, name: str, dollars: int = 1) -> Optional[Var]:
        return self._interned.get((dollars, name))

    def interned(self) -> list[Var]:
        return list(self._interned.values())


def _merge_union(lhs: Term, rhs: Term) -> Term:
    """Combine two desugared union operands.

    Sets merge into one flat set and variables join the union list.  Any
    other operand makes the union ill-formed; it is kept as a raw
    ``\\union`` tuple so the predicate that eventually uses it fails,
    rather than failing here.  Its leading sets and variables merge into
    one operand, as the parser reads them back from the rendered text.
    """
    parts = []
    for t in (lhs, rhs):
        if isinstance(t, Tup) and t.head == UNION_SYM:
            parts.extend(t.members[1:])
        else:
            parts.append(t)
    elements: list[Term] = []
    union_vars: list[Var] = []
    for i, p in enumerate(parts):
        if isinstance(p, SetTerm):
            elements.extend(p.elements)
            union_vars.extend(p.union_vars)
        elif isinstance(p, Var):
            union_vars.append(p)
        else:
            lead = [SetTerm(elements, union_vars)] if i > 1 else parts[:i]
            return Tup((UNION_SYM, *lead, *parts[i:]))
    return SetTerm(elements, union_vars)


def desugar(node, scope: Optional[VarScope] = None) -> Term:
    """Lower a surface term to the core algebra.

    Already-lowered terms pass through unchanged, so the operation is
    idempotent.  ``scope`` resolves variable references; omitting it
    treats every single-dollar name as a local.
    """
    return _lower(node, scope if scope is not None else VarScope())


def _lower(node, scope: VarScope) -> Term:
    lower = _LOWERINGS.get(type(node))
    if lower is None:
        raise TypeError(f"not a surface term: {node!r}")
    return lower(node, scope)


def _lower_binary(node: syntax.Binary, scope: VarScope) -> Term:
    lhs, rhs = _lower(node.lhs, scope), _lower(node.rhs, scope)
    if node.op == "\\/":
        return _merge_union(lhs, rhs)
    return Tup((_INFIX_SYM[node.op], lhs, rhs))


def _lower_unary(node: syntax.Unary, scope: VarScope) -> Term:
    inner = _lower(node.operand, scope)
    if isinstance(inner, Num):
        return Num(-inner.value) if node.op == "-" else inner
    if node.op == "+":
        return inner
    return Tup((MINUS_SYM, inner))


def _lowered(node: Term, scope: VarScope) -> Term:
    return node


# One lowering per node type; a core term is already lowered.
_LOWERINGS = {
    syntax.VarRef: lambda node, scope: scope.lookup(node.name, node.dollars),
    syntax.NumberLit: lambda node, scope: Num(node.value),
    syntax.Name: lambda node, scope: Sym(node.text),
    syntax.Binary: _lower_binary,
    syntax.HeadTuple: lambda node, scope: Tup(
        (Sym(node.head), *[_lower(a, scope) for a in node.args])),
    syntax.TupleLit: lambda node, scope: Tup(tuple([_lower(m, scope) for m in node.members])),
    # A set literal written inside a set literal stays an element; the
    # well-formedness check reports it at use time.
    syntax.SetLit: lambda node, scope: SetTerm([_lower(m, scope) for m in node.members]),
    syntax.Unary: _lower_unary,
    **dict.fromkeys((Num, Sym, Var, Tup, SetTerm), _lowered),
}


def classify(t: Term) -> str:
    """``set`` for set terms (including raw ``\\union`` tuples), else
    ``individual``."""
    if isinstance(t, SetTerm):
        return SET
    if isinstance(t, Tup) and t.members and t.head == UNION_SYM:
        return SET
    return INDIVIDUAL


def check_set_wellformed(t: Term) -> Optional[str]:
    """Return None when well-formed, else a description of the first
    violation.

    A set is ill-formed when an element is itself a set, or when a union
    operand is anything but a set or a variable.  A raw ``\\union`` tuple
    is ill-formed whatever its operands: desugaring merges a union of sets
    and variables into one set, and :func:`calang.unify.unify` matches the
    tuple with nothing.  Callers turn a violation into predicate failure;
    this check never raises.
    """
    match t:
        case Num() | Sym() | Var():
            return None
        case SetTerm():
            for e in t.elements:
                if classify(e) == SET:
                    return f"set member is itself a set: {term_text(e)}"
                v = check_set_wellformed(e)
                if v:
                    return v
            return None
        case Tup() if t.members and t.head == UNION_SYM:
            for op in t.members[1:]:
                if not isinstance(op, Var) and classify(op) != SET:
                    return f"union with a non-set operand: {term_text(op)}"
                v = check_set_wellformed(op)
                if v:
                    return v
            return f"union left unmerged: {term_text(t)}"
        case Tup():
            for m in t.members:
                v = check_set_wellformed(m)
                if v:
                    return v
            return None
    return None


def iter_vars(t: Term) -> Iterator[Var]:
    """Each variable occurrence in ``t``, left to right (a set's elements
    before its union variables); ground subterms are skipped."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t
        elif not t.ground:
            if isinstance(t, Tup):
                stack.extend(reversed(t.members))
            else:
                stack.extend(reversed(t.union_vars))
                stack.extend(reversed(t.elements))


def map_vars(t: Term, f: Callable[[Var], Term]) -> Term:
    """``t`` with each variable ``v`` replaced by ``f(v)``; ground subterms
    are returned as they are.

    A union variable replaced by a set merges into the enclosing set and
    one replaced by a variable becomes that variable; one replaced by an
    individual stays in place, so the well-formedness check can reject
    it.  A term in which nothing changed is returned as it is.
    """
    if isinstance(t, Var):
        return f(t)
    if t.ground:
        return t
    if isinstance(t, Tup):
        members = tuple(m if m.ground else map_vars(m, f) for m in t.members)
        return t if all(map(is_, members, t.members)) else Tup(members)
    elements = [e if e.ground else map_vars(e, f) for e in t.elements]
    changed = not all(map(is_, elements, t.elements))
    union_vars: list[Var] = []
    for v in t.union_vars:
        r = f(v)
        if isinstance(r, SetTerm):
            elements.extend(r.elements)
            union_vars.extend(r.union_vars)
        else:
            r = r if isinstance(r, Var) else v
            union_vars.append(r)
        changed = changed or r is not v
    return SetTerm(elements, union_vars) if changed else t


# ---------------------------------------------------------------------------
# Rendering, through the surface syntax's renderer
# ---------------------------------------------------------------------------

_INFIX_OP = {name: op for op, name in INFIX_SYMBOL.items()}


def term_text(t: Term) -> str:
    """Render a term in CAL surface style, for reports and diagnostics.

    Desugaring the parse of the text gives the term back."""
    return syntax.render_term(_surface(t))


def _surface(t: Term) -> syntax.SurfaceTerm:
    """The surface term that renders as ``t``."""
    # Infix tuples are a binary operator with two operands or a raw union
    # of two or more.  Serial latency sums nest deeper on the left than the
    # recursion limit allows, so their left operands are walked in a loop,
    # which leaves ``name`` the head symbol's name of a tuple ``t``.
    spine = []
    while type(t) is Tup:
        members = t.members
        name = members[0].name if members and type(members[0]) is Sym else None
        if not (len(members) == 3 and name in _INFIX_OP or len(members) > 3 and name == UNION):
            break
        spine.append(t)
        t = members[1]
    kind = type(t)
    if kind is Num:
        node = syntax.NumberLit(t.value)
    elif kind is Sym:
        node = syntax.Name(t.name)
    elif kind is Var:
        if t.anonymous:
            node = syntax.VarRef("_", 1)
        else:
            node = syntax.VarRef(t.name, 2 if t.category == ENVIRONMENT else 1)
    elif kind is SetTerm:
        # Braces go only where the union variables alone spell a set.
        refs = [_surface(v) for v in t.union_vars]
        if t.elements or len(refs) < 2:
            node = syntax.SetLit(tuple([_surface(e) for e in t.elements]))
        else:
            node = refs.pop(0)
        for ref in refs:
            node = syntax.Binary("\\/", node, ref)
    elif name == MINUS and len(t.members) == 2:
        node = syntax.Unary("-", _surface(t.members[1]))
    elif name is not None and len(t.members) > 1 and not name.startswith("\\"):
        node = syntax.HeadTuple(name, tuple([_surface(m) for m in t.members[1:]]))
    else:
        node = syntax.TupleLit(tuple([_surface(m) for m in t.members]))
    for tup in reversed(spine):
        op = _INFIX_OP[tup.members[0].name]
        for m in tup.members[2:]:
            node = syntax.Binary(op, node, _surface(m))
    return node
