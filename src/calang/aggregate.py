"""Whole-network constraint aggregation.

Functional constraints aggregate by unification: a serial connection
``A..B`` pairs A's connected output fields with B's input fields
positionally and unifies each pair, so an assertion made upstream
becomes a condition downstream can test.  A pair that fails to unify is
a warning, not an error: the downstream variable is left unconstrained,
which loses precision but stays sound.

Cost constraints aggregate through a per-combinator rule table.  For a
pipeline, latency is ``T_left + (comm + T_right)`` per output channel,
with ``comm`` a symbolic per-edge communication cost (default symbol
``comm_cost``); message counts multiply under interval arithmetic.
Parallel composition is channel-disjoint pass-through.  Statistical
terms (``Poisson``) and ``unknown`` are carried symbolically and never
folded.

Each box occurrence in a network becomes an *instance* with its own copy
of the declaration's variables, so a box used twice keeps its activations
apart, mirroring how environment variables are provided per box.

Network expressions are parsed by :mod:`calang.syntax`.  A chain
``A .. B .. C`` is one :class:`Serial` whose stages are walked in a loop;
walks recurse only into parentheses, whose nesting the parser bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import syntax
from .clauses import (
    BoxDeclaration,
    Clause,
    Diagnostic,
    Equivalence,
    Predicate,
    Relation,
    evaluate_box,
    flatten_provided,
    input_store,
    merge_branches,
)
from .terms import (
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
class BoxRef:
    instance: Instance


@dataclass
class Serial:
    stages: list["NetExpr"]
    # comms[i] overrides the cost of the edge stages[i]..stages[i+1] unless None
    comms: list[Optional[Term]]


@dataclass
class Parallel:
    branches: list["NetExpr"]


NetExpr = Union[BoxRef, Serial, Parallel]


@dataclass
class Network:
    name: str
    expr: NetExpr

    def instances(self) -> list[Instance]:
        out: list[Instance] = []

        def walk(e: NetExpr):
            if isinstance(e, BoxRef):
                out.append(e.instance)
            else:
                for part in e.stages if isinstance(e, Serial) else e.branches:
                    walk(part)

        walk(self.expr)
        return out


def clone_declaration(decl: BoxDeclaration, supply: VarSupply) -> BoxDeclaration:
    """Copy a declaration with every variable renamed to a fresh identity."""
    mapping: dict[Var, Var] = {}

    def rn_var(v: Var) -> Var:
        if v not in mapping:
            mapping[v] = supply.fresh(v.name, v.category)
        return mapping[v]

    def rn_pred(p: Predicate) -> Predicate:
        lhs, rhs = map_vars(p.lhs, rn_var), map_vars(p.rhs, rn_var)
        return Relation(lhs, p.op, rhs) if isinstance(p, Relation) else Equivalence(lhs, rhs)

    clauses = tuple(
        Clause(tuple(rn_pred(p) for p in c.conditions),
               tuple(rn_pred(p) for p in c.assertions), c.pos, inherited=c.inherited)
        for c in decl.clauses)
    object_vars = {name: rn_var(v) for name, v in decl.object_vars.items()}
    env_vars = {name: rn_var(v) for name, v in decl.env_vars.items()}
    return BoxDeclaration(decl.name, decl.inputs, decl.outputs, clauses,
                          object_vars, env_vars, decl.pos, supply)


# -- boundary helpers --------------------------------------------------------

def input_ends(expr: NetExpr) -> list[Instance]:
    if isinstance(expr, BoxRef):
        return [expr.instance]
    if isinstance(expr, Serial):
        return input_ends(expr.stages[0])
    return [i for b in expr.branches for i in input_ends(b)]


def output_ends(expr: NetExpr) -> list[Instance]:
    if isinstance(expr, BoxRef):
        return [expr.instance]
    if isinstance(expr, Serial):
        return output_ends(expr.stages[-1])
    return [i for b in expr.branches for i in output_ends(b)]


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
                for up in output_ends(left):
                    if not up.decl.outputs:
                        raise NetworkError(
                            f"box {up.name} has no output tuple type to connect")
                    up_fields = up.decl.outputs[CONNECT_CHANNEL]
                    for down in input_ends(right):
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


@dataclass
class NetEvaluation:
    network: Network
    branches: list[NetBranch]
    diagnostics: list[Diagnostic]


def aggregate_functional(net: Network, inputs: Optional[BindingStore] = None) -> NetEvaluation:
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
        nxt: list[NetBranch] = []
        for br in branches:
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
                if not ev.branches:
                    continue
                for sub in ev.branches:
                    fired = dict(br.fired)
                    fired[inst.name] = sub.fired
                    nxt.append(NetBranch(sub.store, fired))
        branches = merge_branches(nxt)

    return NetEvaluation(net, branches, diagnostics)


# ---------------------------------------------------------------------------
# Extrafunctional aggregation: latency and message counts
# ---------------------------------------------------------------------------

@dataclass
class LatencyModel:
    """Per-output-channel cost terms: latency (symbolic complexity,
    ``Poisson(..)`` or ``unknown``) and message counts (integer,
    ``limits(lo,hi)``, ``unknown`` or ``unbounded``)."""

    latency: dict[int, Term] = field(default_factory=dict)
    messages: dict[int, Term] = field(default_factory=dict)

    def channel_count(self) -> int:
        keys = set(self.latency) | set(self.messages)
        return max(keys) + 1 if keys else 0


def box_latency_model(inst: Instance, store: BindingStore) -> LatencyModel:
    """Extract the $$Tn / $$Mn associations of one box instance.

    An unasserted latency defaults to ``unknown`` and an unasserted
    message count to ``unbounded``.
    """
    model = LatencyModel()
    for n in range(len(inst.decl.outputs)):
        t_var = inst.decl.env_vars.get(f"T{n}")
        m_var = inst.decl.env_vars.get(f"M{n}")
        t_bound = t_var is not None and store.binding(t_var) is not None
        m_bound = m_var is not None and store.binding(m_var) is not None
        model.latency[n] = resolve(t_var, store) if t_bound else UNKNOWN_SYM
        model.messages[n] = resolve(m_var, store) if m_bound else UNBOUNDED_SYM
    return model


def _plus(a: Term, b: Term) -> Term:
    return Tup((Sym("\\plus"), a, b))


@dataclass
class CountRange:
    lo: int
    hi: Optional[int]  # None = unbounded


def _count_range(t: Term) -> Optional[CountRange]:
    """Read a message-count term; None means it cannot be interpreted."""
    match t:
        case Num() if t.value.denominator == 1 and t.value >= 0:
            return CountRange(int(t.value), int(t.value))
        case Sym("unbounded"):
            return CountRange(0, None)
        case Tup((Sym("limits"), Num() as lo, Num() as hi)) if (
                lo.value.denominator == 1 and hi.value.denominator == 1
                and 0 <= lo.value <= hi.value):
            return CountRange(int(lo.value), int(hi.value))
        case _:
            return None


def _range_term(r: CountRange) -> Term:
    if r.hi is None:
        return UNBOUNDED_SYM
    if r.lo == r.hi:
        return Num(Fraction(r.lo))
    return Tup((Sym("limits"), Num(Fraction(r.lo)), Num(Fraction(r.hi))))


def multiply_counts(a: Term, b: Term, zero_lower: bool = False) -> Term:
    """Message-count product under interval arithmetic.

    Exact for integers, interval product for ``limits``; ``unknown``
    absorbs; an exact zero annihilates even ``unbounded``.  With
    ``zero_lower`` the lower bound drops to zero (unresolved routing).
    """
    ra, rb = _count_range(a), _count_range(b)
    if ra is None or rb is None:
        return UNKNOWN_SYM
    if ra.hi == 0 or rb.hi == 0:
        return Num(Fraction(0))
    if ra.hi is None or rb.hi is None:
        return UNBOUNDED_SYM
    lo = 0 if zero_lower else ra.lo * rb.lo
    return _range_term(CountRange(lo, ra.hi * rb.hi))


def _serial_rule(left: LatencyModel, right: LatencyModel, comm: Term,
                 fan_out: bool) -> LatencyModel:
    out = LatencyModel()
    t_up = left.latency.get(CONNECT_CHANNEL, UNKNOWN_SYM)
    m_up = left.messages.get(CONNECT_CHANNEL, UNBOUNDED_SYM)
    for n in sorted(set(right.latency) | set(right.messages)):
        out.latency[n] = _plus(t_up, _plus(comm, right.latency.get(n, UNKNOWN_SYM)))
        out.messages[n] = multiply_counts(m_up, right.messages.get(n, UNBOUNDED_SYM),
                                          zero_lower=fan_out)
    return out


def _parallel_rule(models: list[LatencyModel]) -> LatencyModel:
    out = LatencyModel()
    base = 0
    for m in models:
        for n in sorted(set(m.latency) | set(m.messages)):
            out.latency[base + n] = m.latency.get(n, UNKNOWN_SYM)
            out.messages[base + n] = m.messages.get(n, UNBOUNDED_SYM)
        base += m.channel_count()
    return out


def aggregate_extrafunctional(expr: NetExpr, store: BindingStore) -> LatencyModel:
    """Fold the combinator tree into one latency model for the network."""
    if isinstance(expr, BoxRef):
        return box_latency_model(expr.instance, store)
    if isinstance(expr, Serial):
        # Folding from the left gives a chain the latency shape of
        # ((A .. B) .. C): T_A + (comm + T_B), then + (comm + T_C).
        model = aggregate_extrafunctional(expr.stages[0], store)
        for comm, stage in zip(expr.comms, expr.stages[1:]):
            right = aggregate_extrafunctional(stage, store)
            model = _serial_rule(model, right, COMM_COST if comm is None else comm,
                                 fan_out=len(input_ends(stage)) > 1)
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
                    ok = (len(args) == 2 and all(
                        isinstance(a, Num) and a.value.denominator == 1 and a.value >= 0
                        for a in args) and args[0].value <= args[1].value)
                    if not ok and not any(isinstance(a, Var) for a in args):
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
    plus latency/message channel indexes out of range for the signature."""
    out: list[Diagnostic] = []
    channels = len(decl.outputs)
    for name, var in decl.env_vars.items():
        if len(name) > 1 and name[0] in "TM" and name[1:].isdigit():
            if int(name[1:]) >= channels:
                out.append(Diagnostic(
                    "warning",
                    f"{decl.name}: $${name} exceeds the {channels} output "
                    f"channel(s) of the signature", decl.pos))
    for ci, clause in enumerate(decl.clauses):
        for pred in clause.conditions + clause.assertions:
            terms = (pred.lhs, pred.rhs)
            for t in terms:
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

def _strip_comment(line: str) -> str:
    idx = line.find("--")
    return line[:idx] if idx >= 0 else line


def _network_expr(e: syntax.NetSurface, library: dict[str, BoxDeclaration],
                  supply: VarSupply, counts: dict[str, int]) -> NetExpr:
    """Instantiate the boxes of a parsed network expression, left to right."""
    if isinstance(e, syntax.NetBox):
        decl = library.get(e.name)
        if decl is None:
            raise NetworkError(f"{e.pos}: unknown box {e.name!r} (missing 'use' line?)")
        counts[e.name] = counts.get(e.name, 0) + 1
        name = e.name if counts[e.name] == 1 else f"{e.name}_{counts[e.name]}"
        return BoxRef(Instance(name, clone_declaration(decl, supply)))
    if isinstance(e, syntax.NetSerial):
        return Serial([_network_expr(s, library, supply, counts) for s in e.stages],
                      [None if c is None else desugar(c) for c in e.comms])
    return Parallel([_network_expr(b, library, supply, counts) for b in e.branches])


@dataclass
class NetworkFile:
    networks: list[Network]
    library: dict[str, BoxDeclaration]


def parse_network_file(text: str, base_dir: Optional[Path] = None,
                       supply: Optional[VarSupply] = None) -> NetworkFile:
    """Line-oriented network description: ``use <file.cal>`` loads box
    declarations, ``net <name> = <boxexpr>`` defines a network."""
    base = base_dir or Path(".")
    supply = supply or VarSupply("i")
    library: dict[str, BoxDeclaration] = {}
    networks: list[Network] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("use "):
            path = base / line[4:].strip()
            try:
                source = path.read_text()
            except OSError as e:
                raise NetworkError(f"line {ln}: cannot read {path}: {e}")
            for decl in syntax.parse_program(source):
                flattened = flatten_provided(decl, VarSupply())
                library[flattened.name] = flattened
            continue
        if line.startswith("net "):
            name, expr = syntax.parse_network(raw, syntax.Pos(ln, 1))
            networks.append(Network(name, _network_expr(expr, library, supply, {})))
            continue
        raise NetworkError(f"line {ln}: expected 'use <file.cal>' or 'net <name> = <boxexpr>'")
    return NetworkFile(networks, library)


@dataclass
class EnvSpec:
    """Parsed environment file: global ``$$name`` values plus per-box
    ``BOX.$field`` / ``BOX.$$name`` associations."""

    globals: dict[str, Term] = field(default_factory=dict)
    fields: dict[tuple[str, str], Term] = field(default_factory=dict)
    env: dict[tuple[str, str], Term] = field(default_factory=dict)


def parse_env_file(text: str) -> EnvSpec:
    spec = EnvSpec()
    scope = VarScope()
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise NetworkError(f"env line {ln}: expected '<target> = <term>'")
        lhs, _, rhs = raw.partition("=")
        tokens = syntax.tokenize(rhs, syntax.Pos(ln, len(lhs) + 2))
        term = desugar(syntax.parse_term(tokens), scope)
        lhs = lhs.strip()
        if lhs.startswith("$$"):
            spec.globals[lhs[2:]] = term
        elif "." in lhs:
            box, ref = lhs.split(".", 1)
            box = box.strip()
            ref = ref.strip()
            if ref.startswith("$$"):
                spec.env[(box, ref[2:])] = term
            elif ref.startswith("$"):
                spec.fields[(box, ref[1:])] = term
            else:
                raise NetworkError(f"env line {ln}: expected '{box}.$field' or '{box}.$$var'")
        else:
            raise NetworkError(f"env line {ln}: expected '$$name' or 'BOX.$field' target")
    return spec


def instance_input_store(decl: BoxDeclaration, labels: tuple[str, ...], env: EnvSpec,
                         base: Optional[BindingStore] = None) -> BindingStore:
    """Bind the environment file's associations for one box instance.

    ``labels`` are the names its ``BOX.`` lines may use (the instance
    name and the box name).  A box-specific association wins over a
    global one, and the first of several box-specific ones wins.
    """
    fields: dict[str, Term] = {}
    for (box, name), term in env.fields.items():
        if box in labels:
            if name not in decl.object_vars:
                raise NetworkError(f"box {decl.name} has no field {name!r}")
            fields.setdefault(name, term)
    specific: dict[str, Term] = {}
    for (box, name), term in env.env.items():
        if box in labels:
            specific.setdefault(name, term)
    return input_store(decl, fields, {**env.globals, **specific}, base)


def network_input_store(net: Network, env: EnvSpec,
                        base: Optional[BindingStore] = None) -> BindingStore:
    """Bind the environment file's associations for every instance."""
    store = base if base is not None else BindingStore()
    for inst in net.instances():
        store = instance_input_store(inst.decl, (inst.name, inst.decl.name), env, store)
    return store
