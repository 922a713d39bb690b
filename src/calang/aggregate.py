"""Whole-network constraint aggregation.

Functional constraints aggregate by unification: a serial connection
``A..B`` pairs A's connected output fields with B's input fields
positionally and unifies each pair, so an assertion made upstream
becomes a condition downstream can test.  A pair that fails to unify is
a warning, not an error: the downstream variable is left unconstrained,
which loses precision but stays sound.

Cost constraints aggregate as one ``(latency, message count)`` pair per
output channel, in a list whose index n is channel n; a box's pairs come
from its ``$$Tn`` and ``$$Mn``.  For a pipeline, each of the right
side's pairs gets the left side's connected pair upstream: latency is
``T_left + (comm + T_right)``, with ``comm`` a symbolic per-edge
communication cost (default symbol ``comm_cost``), and message counts
multiply under interval arithmetic.  Parallel composition concatenates
the lists.  Statistical terms (``Poisson``) and ``unknown`` are carried
symbolically and never folded.

Each box occurrence in a network becomes an *instance* with its own copy
of the declaration's variables, so a box used twice keeps its activations
apart, mirroring how environment variables are provided per box.

Network expressions are parsed by :mod:`calang.syntax` into a tree whose
leaves are the instances; :func:`leaves` walks it for all of them or for
those at the network's input or output end.  A chain ``A .. B .. C`` is
one :class:`Serial` whose stages are walked in a loop, so walks recurse
only into parentheses, whose nesting the parser bounds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import syntax
from .clauses import (
    ENV_FILE_SPACE,
    BoxDeclaration,
    Clause,
    Diagnostic,
    Evaluation,
    Predicate,
    SemanticError,
    evaluate_box,
    flatten_provided,
    merge_branches,
)
from .terms import (
    ENVIRONMENT,
    Num,
    SetTerm,
    Sym,
    Term,
    Tup,
    Var,
    VarScope,
    VarSupply,
    check_set_wellformed,
    desugar,
    map_vars,
    term_text,
)
from .unify import BindingStore, resolve, unify

COMM_COST = Sym("comm_cost")
UNKNOWN_SYM = Sym("unknown")
UNBOUNDED_SYM = Sym("unbounded")


class NetworkError(Exception):
    pass


# ---------------------------------------------------------------------------
# Network structure
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    """One box occurrence in a network, with its own variable identities."""

    name: str
    decl: BoxDeclaration


@dataclass
class Serial:
    stages: list["NetExpr"]
    # comms[i] overrides the cost of the edge stages[i]..stages[i+1] unless None
    comms: list[Optional[Term]]


@dataclass
class Parallel:
    branches: list["NetExpr"]


NetExpr = Union[Instance, Serial, Parallel]


def leaves(expr: NetExpr, end: Optional[int] = None) -> list[Instance]:
    """The instances of ``expr``, left to right.  With ``end`` 0 or -1, only
    those at its input or output end: of a chain, its first or last stage's."""
    if isinstance(expr, Instance):
        return [expr]
    if isinstance(expr, Parallel):
        parts = expr.branches
    else:
        parts = expr.stages if end is None else [expr.stages[end]]
    return [inst for part in parts for inst in leaves(part, end)]


@dataclass
class Network:
    name: str
    expr: NetExpr

    def instances(self) -> list[Instance]:
        return leaves(self.expr)


def clone_declaration(decl: BoxDeclaration, supply: VarSupply) -> BoxDeclaration:
    """Copy a declaration with every variable renamed to a fresh identity."""
    mapping: dict[Var, Var] = {}

    def rn_var(v: Var) -> Var:
        if v not in mapping:
            mapping[v] = supply.fresh(v.name, v.category)
        return mapping[v]

    def rn_pred(p: Predicate) -> Predicate:
        return Predicate(map_vars(p.lhs, rn_var), p.op, map_vars(p.rhs, rn_var))

    clauses = tuple(
        Clause(tuple(rn_pred(p) for p in c.conditions),
               tuple(rn_pred(p) for p in c.assertions), c.pos, inherited=c.inherited)
        for c in decl.clauses)
    object_vars = {name: rn_var(v) for name, v in decl.object_vars.items()}
    env_vars = {name: rn_var(v) for name, v in decl.env_vars.items()}
    return BoxDeclaration(decl.name, decl.inputs, decl.outputs, clauses,
                          object_vars, env_vars, decl.pos, supply)


# The output tuple type a serial edge taps on the upstream box.
CONNECT_CHANNEL = 0


@dataclass
class Connection:
    upstream: Instance
    downstream: Instance
    pairs: list[tuple[Var, Var]]


def build_connections(net: Network) -> list[Connection]:
    """Positional field pairings for every serial edge.

    The upstream box contributes its first output tuple type; field
    counts must agree with the downstream input tuple type.
    """
    out: list[Connection] = []

    def walk(e: NetExpr):
        if isinstance(e, Serial):
            walk(e.stages[0])
            for left, right in zip(e.stages, e.stages[1:]):
                walk(right)
                for up in leaves(left, -1):
                    if not up.decl.outputs:
                        raise NetworkError(
                            f"box {up.name} has no output tuple type to connect")
                    up_fields = up.decl.outputs[CONNECT_CHANNEL]
                    for down in leaves(right, 0):
                        down_fields = down.decl.inputs
                        if len(up_fields) != len(down_fields):
                            raise NetworkError(
                                f"arity mismatch on {up.name}..{down.name}: "
                                f"({','.join(up_fields)}) vs ({','.join(down_fields)})")
                        pairs = [(up.decl.object_vars[a], down.decl.object_vars[b])
                                 for a, b in zip(up_fields, down_fields)]
                        out.append(Connection(up, down, pairs))
        elif isinstance(e, Parallel):
            for b in e.branches:
                walk(b)

    walk(net.expr)
    return out


# ---------------------------------------------------------------------------
# Functional aggregation
# ---------------------------------------------------------------------------

@dataclass
class NetBranch:
    store: BindingStore
    fired: dict[str, tuple[int, ...]]  # instance name -> fired clause indices


def aggregate_functional(net: Network, inputs: Optional[BindingStore] = None) -> Evaluation:
    """Evaluate the network's boxes in topological order, flowing object
    variable associations across every serial edge by unification."""
    order = net.instances()
    connections = build_connections(net)
    incoming: dict[str, list[Connection]] = {}
    for c in connections:
        incoming.setdefault(c.downstream.name, []).append(c)

    store = inputs if inputs is not None else BindingStore()
    branches = [NetBranch(store, {})]
    diagnostics: list[Diagnostic] = []
    seen_msgs: set[str] = set()

    def diag(severity: str, message: str):
        if message not in seen_msgs:
            seen_msgs.add(message)
            diagnostics.append(Diagnostic(severity, message))

    for inst in order:
        groups: list[tuple[BindingStore, list[NetBranch]]] = [(br.store, []) for br in branches]
        for br, (_, nxt) in zip(branches, groups):
            stores = [br.store]
            for conn in incoming.get(inst.name, ()):
                for up_var, down_var in conn.pairs:
                    joined: list[BindingStore] = []
                    for s in stores:
                        if isinstance(resolve(up_var, s), Var):
                            # Upstream asserted nothing: leave the
                            # downstream variable unconstrained.
                            diag("warning",
                                 f"{conn.upstream.name}..{conn.downstream.name}: no "
                                 f"association on {conn.upstream.decl.name}.{up_var.name} "
                                 f"to flow into {inst.decl.name}.{down_var.name}")
                            joined.append(s)
                            continue
                        got = unify(up_var, down_var, s)
                        if got:
                            joined.extend(got)
                        else:
                            diag("warning",
                                 f"{conn.upstream.name}..{conn.downstream.name}: "
                                 f"constraint on {inst.decl.name}.{down_var.name} does not "
                                 f"aggregate; leaving it unconstrained")
                            joined.append(s)
                    stores = joined
            for s in stores:
                ev = evaluate_box(inst.decl, s)
                for d in ev.diagnostics:
                    diag(d.severity, f"{inst.name}: {d.message}")
                for sub in ev.branches:
                    fired = dict(br.fired)
                    fired[inst.name] = sub.fired
                    nxt.append(NetBranch(sub.store, fired))
        branches = merge_branches(groups, inst.decl.variables)

    return Evaluation(branches, diagnostics)


# ---------------------------------------------------------------------------
# Extrafunctional aggregation: latency and message counts
# ---------------------------------------------------------------------------

# A cost model: the (latency, message count) pair of each output channel,
# index n for channel n.  A latency is a symbolic complexity,
# ``Poisson(..)`` or ``unknown``; a message count an integer,
# ``limits(lo,hi)``, ``unknown`` or ``unbounded``.
Costs = list[tuple[Term, Term]]


def cost_channel(name: str) -> Optional[tuple[str, Optional[int]]]:
    """``(kind, n)`` when ``$$name`` is ``$$Tn``, the latency, or ``$$Mn``, the
    message count, of output channel n.  n is None when its decimal digits
    are not canonical, as in ``T01``; any other name, ``T²`` too, gives None.
    A number too long for ``int()`` is past every signature's channels."""
    kind, digits = name[:1], name[1:]
    if kind not in ("T", "M") or not digits.isdecimal():
        return None
    if not digits.isascii() or (digits[0] == "0" and digits != "0"):
        return kind, None
    return kind, int(digits) if len(digits) <= syntax.MAX_DIGITS else sys.maxsize


def box_latency_model(inst: Instance, store: BindingStore) -> Costs:
    """The costs of one box instance, from its $$Tn / $$Mn associations.

    An unasserted latency defaults to ``unknown`` and an unasserted
    message count to ``unbounded``.
    """
    def asserted(name: str, default: Term) -> Term:
        var = inst.decl.env_vars.get(name)
        return default if var is None or store.binding(var) is None else resolve(var, store)

    return [(asserted(f"T{n}", UNKNOWN_SYM), asserted(f"M{n}", UNBOUNDED_SYM))
            for n in range(len(inst.decl.outputs))]


def _plus(a: Term, b: Term) -> Term:
    return Tup((Sym("\\plus"), a, b))


def _count_range(t: Term) -> Optional[tuple[int, Optional[int]]]:
    """A message-count term as ``(lo, hi)``, hi None when unbounded; None
    when it cannot be interpreted."""
    match t:
        case Num() if t.value.denominator == 1 and t.value >= 0:
            return t.value.numerator, t.value.numerator
        case Sym("unbounded"):
            return 0, None
        case Tup((Sym("limits"), Num() as lo, Num() as hi)) if (
                lo.value.denominator == 1 and hi.value.denominator == 1
                and 0 <= lo.value <= hi.value):
            return lo.value.numerator, hi.value.numerator
        case _:
            return None


def multiply_counts(a: Term, b: Term, zero_lower: bool = False) -> Term:
    """Message-count product under interval arithmetic.

    Exact for integers, interval product for ``limits``; ``unknown``
    absorbs, as does a product too long to write out; an exact zero
    annihilates even ``unbounded``.  With ``zero_lower`` the lower bound
    drops to zero (unresolved routing).
    """
    ra, rb = _count_range(a), _count_range(b)
    if ra is None or rb is None:
        return UNKNOWN_SYM
    (alo, ahi), (blo, bhi) = ra, rb
    if ahi == 0 or bhi == 0:
        return Num(Fraction(0))
    if ahi is None or bhi is None:
        return UNBOUNDED_SYM
    lo, hi = 0 if zero_lower else alo * blo, ahi * bhi
    if not syntax.writable(hi):
        return UNKNOWN_SYM
    if lo == hi:
        return Num(Fraction(lo))
    return Tup((Sym("limits"), Num(Fraction(lo)), Num(Fraction(hi))))


def _serial_rule(left: Costs, right: Costs, comm: Term, fan_out: bool) -> Costs:
    t_up, m_up = left[CONNECT_CHANNEL] if left else (UNKNOWN_SYM, UNBOUNDED_SYM)
    return [(_plus(t_up, _plus(comm, t)), multiply_counts(m_up, m, zero_lower=fan_out))
            for t, m in right]


def _parallel_rule(models: list[Costs]) -> Costs:
    return [pair for m in models for pair in m]


def aggregate_extrafunctional(expr: NetExpr, store: BindingStore) -> Costs:
    """Fold the combinator tree into the network's costs."""
    if isinstance(expr, Instance):
        return box_latency_model(expr, store)
    if isinstance(expr, Serial):
        # Folding from the left gives a chain the latency shape of
        # ((A .. B) .. C): T_A + (comm + T_B), then + (comm + T_C).
        model = aggregate_extrafunctional(expr.stages[0], store)
        for comm, stage in zip(expr.comms, expr.stages[1:]):
            right = aggregate_extrafunctional(stage, store)
            model = _serial_rule(model, right, COMM_COST if comm is None else comm,
                                 fan_out=len(leaves(stage, 0)) > 1)
        return model
    models = [aggregate_extrafunctional(b, store) for b in expr.branches]
    return _parallel_rule(models)


# ---------------------------------------------------------------------------
# Vocabulary validation (advisory)
# ---------------------------------------------------------------------------

def shape_dims(t: Term) -> Optional[list[Term]]:
    """Walk a nil-terminated shape list ``shape(d0, (d1, (d2, nil)))``;
    None when the chain is broken."""
    if not (isinstance(t, Tup) and len(t.members) == 3):
        return None
    dims: list[Term] = []
    node = (t.members[1], t.members[2])
    while True:
        dims.append(node[0])
        tail = node[1]
        if tail == Sym("nil"):
            return dims
        if isinstance(tail, Tup) and len(tail.members) == 2:
            node = (tail.members[0], tail.members[1])
            continue
        return None


def check_vocabulary(t: Term) -> list[str]:
    """Advisory shape checks for the common property vocabulary.

    Only definite violations are reported; variables are welcome
    anywhere a pattern might put them.
    """
    issues: list[str] = []

    def is_count(x: Term) -> bool:
        return (isinstance(x, Num) and x.value.denominator == 1 and x.value >= 0) or \
            isinstance(x, Var) or x == UNKNOWN_SYM

    def walk(x: Term):
        match x:
            case SetTerm():
                for e in x.elements:
                    walk(e)
            case Tup() if x.members and isinstance(x.head, Sym):
                name = x.head.name
                args = x.members[1:]
                if name == "shape":
                    if shape_dims(x) is None:
                        issues.append(f"unterminated shape list: {term_text(x)}")
                elif name == "rank":
                    if len(args) != 1 or not is_count(args[0]):
                        issues.append(f"rank wants one non-negative integer or unknown: "
                                      f"{term_text(x)}")
                elif name in ("element", "value", "packed", "Poisson"):
                    if len(args) != 1:
                        issues.append(f"{name} wants exactly one argument: {term_text(x)}")
                elif name == "limits":
                    if _count_range(x) is None and not any(isinstance(a, Var) for a in args):
                        issues.append(f"limits wants integers 0 <= lo <= hi: {term_text(x)}")
                for a in args:
                    walk(a)
            case Tup():
                for m in x.members:
                    walk(m)

    walk(t)
    return issues


def check_declaration(decl: BoxDeclaration) -> list[Diagnostic]:
    """Vocabulary diagnostics for every term of a flattened declaration,
    plus latency/message channel names that are not canonical or exceed
    the signature's channels."""
    out: list[Diagnostic] = []
    channels = len(decl.outputs)
    for name in decl.env_vars:
        _, n = cost_channel(name) or ("", -1)
        if n is None or n >= channels:
            why = ("names no output channel: channel numbers are plain decimal, without "
                   "leading zeros" if n is None else
                   f"exceeds the {channels} output channel(s) of the signature")
            out.append(Diagnostic("warning", f"{decl.name}: $${name} {why}", decl.pos))
    for ci, clause in enumerate(decl.clauses):
        for pred in clause.conditions + clause.assertions:
            for t in (pred.lhs, pred.rhs):
                if isinstance(t, (Num, Sym, Var)):
                    continue  # neither check can flag a number, symbol or variable
                v = check_set_wellformed(t)
                if v:
                    out.append(Diagnostic(
                        "warning", f"{decl.name} clause {ci + 1}: ill-formed set "
                        f"({v}); predicates using it will fail", clause.pos))
                for issue in check_vocabulary(t):
                    out.append(Diagnostic(
                        "warning", f"{decl.name} clause {ci + 1}: {issue}", clause.pos))
    return out


# ---------------------------------------------------------------------------
# Network and environment files
# ---------------------------------------------------------------------------

def read_input(path: Union[str, Path]) -> str:
    """The text of an input file; one that cannot be read or is not UTF-8
    is a :class:`NetworkError` naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise NetworkError(f"cannot read {path}: {e}") from None


def load_boxes(*paths: Union[str, Path]) -> list[BoxDeclaration]:
    """The flattened box declarations of ``.cal`` files, in file order.
    A syntax or semantic error names the file it is in."""
    decls: list[BoxDeclaration] = []
    for path in paths:
        try:
            decls += [flatten_provided(d) for d in syntax.parse_program(read_input(path))]
        except (syntax.CalSyntaxError, SemanticError) as e:
            e.args = (f"{path}: {e}",)
            raise
    return decls


def _strip_comment(line: str) -> str:
    idx = line.find("--")
    return line[:idx] if idx >= 0 else line


def _network_expr(e: syntax.NetSurface, library: dict[str, BoxDeclaration],
                  supply: VarSupply, counts: dict[str, int]) -> NetExpr:
    """Instantiate the boxes of a parsed network expression, left to right.

    The k-th occurrence of box NAME is the instance ``NAME_k``, with k
    skipping the names of library boxes.  Two such names never coincide,
    as k holds no ``_``, so every instance name is unique.
    """
    if isinstance(e, syntax.NetBox):
        decl = library.get(e.name)
        if decl is None:
            raise NetworkError(f"{e.pos}: unknown box {e.name!r} (missing 'use' line?)")
        k = counts.get(e.name, 0) + 1
        while k > 1 and f"{e.name}_{k}" in library:
            k += 1
        counts[e.name] = k
        name = e.name if k == 1 else f"{e.name}_{k}"
        return Instance(name, clone_declaration(decl, supply))
    if isinstance(e, syntax.NetSerial):
        return Serial([_network_expr(s, library, supply, counts) for s in e.stages],
                      [None if c is None else desugar(c) for c in e.comms])
    return Parallel([_network_expr(b, library, supply, counts) for b in e.branches])


def parse_network_file(text: str, base_dir: Path = Path(".")) -> list[Network]:
    """Line-oriented network description: ``use <file.cal>`` loads box
    declarations, ``net <name> = <boxexpr>`` defines a network."""
    supply = VarSupply("i")
    library: dict[str, BoxDeclaration] = {}
    networks: list[Network] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("use "):
            try:
                decls = load_boxes(base_dir / line[4:].strip())
            except NetworkError as e:
                raise NetworkError(f"line {ln}: {e}") from None
            library.update((d.name, d) for d in decls)
            continue
        if line.startswith("net "):
            name, expr = syntax.parse_network(raw, syntax.Pos(ln, 1))
            networks.append(Network(name, _network_expr(expr, library, supply, {})))
            continue
        raise NetworkError(f"line {ln}: expected 'use <file.cal>' or 'net <name> = <boxexpr>'")
    return networks


EnvSpec = dict[tuple[Optional[str], str], Term]

# The token kinds of an environment file's targets: "$$NAME", "BOX.$NAME"
# and "BOX.$$NAME".
_ENV_TARGETS = ([syntax.ENV_VARIABLE], [syntax.IDENT, syntax.PUNCT, syntax.VARIABLE],
                [syntax.IDENT, syntax.PUNCT, syntax.ENV_VARIABLE])


def parse_env_file(text: str) -> EnvSpec:
    """An environment file as ``{(BOX or None, target as written): term}``.

    Each line, blank and ``--`` comment lines aside, is ``$$NAME = term``
    for every box, or ``BOX.$NAME = term`` or ``BOX.$$NAME = term`` for the
    box ``BOX`` in ``eval``; in ``aggregate``, ``A_2.`` names one instance
    and ``A.`` every instance of box A.  A later line for a target replaces
    the earlier one in its place.  A box's variable takes its first box-specific
    association, else its global one, unless it is already bound.  The
    terms' variables are the file's own.
    """
    env: EnvSpec = {}
    # A supply of its own keeps these variables apart from every box's.
    scope = VarScope(VarSupply(ENV_FILE_SPACE))
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise NetworkError(f"env line {ln}: expected '<target> = <term>'")
        lhs, _, rhs = raw.partition("=")
        try:
            target = syntax.tokenize(lhs, operators={".": syntax.PUNCT})[:-1]
        except syntax.CalSyntaxError:
            target = []
        if [t.kind for t in target] not in _ENV_TARGETS:
            raise NetworkError(f"env line {ln}: expected a '$$NAME', 'BOX.$NAME' or "
                               f"'BOX.$$NAME' target, found {lhs.strip()!r}")
        tokens = syntax.tokenize(rhs, syntax.Pos(ln, len(lhs) + 2))
        box = target[0].text if len(target) == 3 else None
        env[(box, target[-1].text)] = desugar(syntax.parse_term(tokens), scope)
    return env


def instance_input_store(decl: BoxDeclaration, labels: tuple[str, ...], env: EnvSpec,
                         base: Optional[BindingStore] = None) -> BindingStore:
    """Bind the environment file's associations for one box instance, whose
    ``BOX.`` lines may use any of ``labels``, as :func:`parse_env_file`
    states; a ``$$NAME`` no clause mentions joins ``decl.env_vars``."""
    store = base if base is not None else BindingStore()
    entries = [(t, term) for (box, t), term in env.items() if box in labels]
    entries += [(t, term) for (box, t), term in env.items() if box is None]
    for target, term in entries:
        name = target.lstrip("$")
        if target.startswith("$$"):
            var = decl.env_vars.get(name)
            if var is None:
                var = decl.env_vars[name] = decl.supply.fresh(name, ENVIRONMENT)
        else:
            var = decl.object_vars.get(name)
            if var is None:
                raise NetworkError(f"box {decl.name} has no field {name!r}")
        if not store.is_bound(var):
            store = store.bind(var, term)
    return store


def network_input_store(net: Network, env: EnvSpec) -> BindingStore:
    """Bind the environment file's associations for every instance."""
    store = BindingStore()
    for inst in net.instances():
        store = instance_input_store(inst.decl, (inst.name, inst.decl.name), env, store)
    return store
