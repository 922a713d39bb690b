"""Workload ``net-aggregate``: ``calang --format json aggregate`` on
generated network, box library and environment files.

Three network kinds; every round of the pool holds each kind and size
once, so every prefix of the stream has the same mix for every seed:

* relay chains of 8-32 boxes, where the binding store grows with the
  number of instances;
* fan-out networks ``R .. (chain | chain | chain)``;
* 2-3-hop chains of boxes that pass a ``\\/ $r`` remainder on, where
  every hop doubles the evaluation branches.

The seed draws each box's latency and message-count assertions, the
input value and the order of the networks in a round.  The generator derives what the report must say: the
serial latency sum, the interval product of message counts and the
number of branches.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from common import field_problems, load_report, run_cli, split_top

NAME = "net-aggregate"
# Network sizes come from a fixed design seed, so every seed's stream
# costs the same; chain lengths are drawn from each stratum once per
# round, so that the cost distribution has no gaps for its median to
# jump across.
DESIGN_SEED = 1101
CHAIN_STRATA = ((8, 13), (14, 19), (20, 25), (26, 32))
FANOUTS = 2  # per round, each with three chains of 2-6 boxes
DOUBLING_HOPS = (2, 3)
ROUNDS = 8
PER_ROUND = len(CHAIN_STRATA) + FANOUTS + len(DOUBLING_HOPS)  # networks in a round
COMM = "comm_cost"


class Box:
    def __init__(self, name: str, t: int, m: tuple[int, int], remainder: bool):
        self.name, self.t, self.m, self.remainder = name, t, m, remainder

    @property
    def m_text(self) -> str:
        lo, hi = self.m
        return str(lo) if lo == hi else f"limits({lo}, {hi})"

    def source(self) -> str:
        if self.remainder:
            return (f"box {self.name} ((x) -> (y)):\n"
                    f"  $x :=: {{value($v)}} \\/ $r\n"
                    f"    => $y :=: {{value($v)}} \\/ $r, $$T0 :=: {self.t}, "
                    f"$$M0 :=: {self.m_text};\n")
        return (f"box {self.name} ((x) -> (y)):\n"
                f"  $x :=: {{value($v)}} \\/ $_\n"
                f"    => $y :=: {{value($v), Type(int)}}, $$T0 :=: {self.t}, "
                f"$$M0 :=: {self.m_text};\n")


def _box(rng, name, remainder=False) -> Box:
    lo = rng.randint(1, 3)
    hi = lo if rng.random() < 0.5 else lo + rng.randint(1, 3)
    return Box(name, rng.randint(1, 40), (lo, hi), remainder)


def _chain_cost(boxes) -> tuple[list, tuple[int, int]]:
    """Latency summands and message interval of a serial chain."""
    summands = [str(boxes[0].t)]
    lo, hi = boxes[0].m
    for b in boxes[1:]:
        summands += [COMM, str(b.t)]
        lo, hi = lo * b.m[0], hi * b.m[1]
    return summands, (lo, hi)


def _net(rng, kind: str, size) -> dict:
    """One network: its boxes, expression, input and expected costs."""
    value = rng.randint(1, 99)
    if kind == "chain":
        boxes = [_box(rng, f"R{i}") for i in range(size)]
        expr = " .. ".join(b.name for b in boxes)
        summands, (lo, hi) = _chain_cost(boxes)
        channels = [(summands, (lo, hi))]
        members = [f"value({value})", "Type(int)"]
        branches = 1
    elif kind == "fanout":
        root = _box(rng, "F")
        chains = [[_box(rng, f"C{j}_{i}") for i in range(n)] for j, n in enumerate(size)]
        boxes = [root] + [b for c in chains for b in c]
        expr = f"F .. ({' | '.join(' .. '.join(b.name for b in c) for c in chains)})"
        channels = []
        for c in chains:
            summands, (lo, hi) = _chain_cost(c)
            # A fan-out edge leaves the routing open: the lower bound is 0.
            channels.append(([str(root.t), COMM] + summands, (0, root.m[1] * hi)))
        members = [f"value({value})", "Type(int)"]
        branches = 1
    else:
        boxes = [_box(rng, f"D{i}", remainder=True) for i in range(size)]
        expr = " .. ".join(b.name for b in boxes)
        channels = [_chain_cost(boxes)]
        members = [f"value({value})", "tag(1)", "tag(2)"]
        branches = 2 ** size  # $r may or may not re-cover value(v) at every hop
    head = boxes[0].name
    return {"kind": kind, "size": size, "boxes": boxes, "expr": expr, "channels": channels,
            "input": "{" + ", ".join(members) + "}", "branches": branches,
            "env": f"{head}.$x = {{{', '.join(members)}}}\n"}


def generate(cal, seed: int, workdir: Path, rounds: int = ROUNDS) -> list[dict]:
    rng, design = random.Random(seed), random.Random(DESIGN_SEED)
    plan = []
    for _ in range(rounds):
        step = ([("chain", design.randint(lo, hi)) for lo, hi in CHAIN_STRATA]
                + [("fanout", tuple(design.randint(2, 6) for _ in range(3)))
                   for _ in range(FANOUTS)]
                + [("doubling", h) for h in DOUBLING_HOPS])
        rng.shuffle(step)
        plan += step
    # The warm-up operation is the first one: the same network for every seed.
    plan.insert(0, plan.pop(plan.index(("doubling", DOUBLING_HOPS[0]))))
    ops = []
    for i, (kind, size) in enumerate(plan):
        op = _net(rng, kind, size)
        lib, net, env = (workdir / f"net-{i}{ext}" for ext in (".cal", ".net", ".env"))
        lib.write_text("\n".join(b.source() for b in op["boxes"]))
        net.write_text(f"use {lib.name}\nnet main = {op['expr']}\n")
        env.write_text(op["env"])
        op["argv"] = ["--format", "json", "aggregate", "--net", str(net), "--env", str(env)]
        ops.append(op)
    return ops


def describe(op) -> str:
    return "\n".join([op["expr"], op["env"]] + [b.source() for b in op["boxes"]])


def run(cal, op):
    return run_cli(cal, op["argv"])


def render(op, out) -> bytes:
    return out[1].encode()


def _summands(text: str) -> list[str]:
    """The summands of a rendered latency sum, whatever its bracketing."""
    return sorted(s.strip() for s in text.replace("(", " ").replace(")", " ").split("+"))


def _count(text: str):
    """A rendered message count as an interval (lo, hi)."""
    text = text.strip()
    if text.startswith("limits(") and text.endswith(")"):
        lo, hi = split_top(text[7:-1])
        return int(lo), int(hi)
    n = Fraction(text)
    return int(n), int(n)


def expected_instances(op) -> dict[str, str]:
    """Per instance: every box fires its one clause and forwards its
    input set unchanged."""
    out = {}
    for b in op["boxes"]:
        out[f"{b.name}: fired clauses"] = "1"
        out[f"{b.name}: $x"] = out[f"{b.name}: $y"] = op["input"]
        out[f"{b.name}: $$T0"] = str(b.t)
        out[f"{b.name}: $$M0"] = b.m_text
    return out


def check(op, out) -> tuple[list[str], bool]:
    code, text = out
    if code != 0:
        return [f"exit code {code}"], False
    data = load_report(text)
    if data is None:
        return ["report is not JSON"], False
    problems = []
    if data.get("status") != "ok" or data.get("diagnostics"):
        problems.append(f"status {data.get('status')!r} with diagnostics")
    sections = data.get("sections", [])
    if len(sections) != 1:
        return problems + [f"{len(sections)} sections"], False
    branches = sections[0].get("branches", [])
    if len(branches) != op["branches"]:
        problems.append(f"{len(branches)} branches, expected {op['branches']}")
    want = expected_instances(op)
    set_fields = {k for k in want if k.endswith("$x") or k.endswith("$y")}
    for bi, table in enumerate(branches):
        inst = {k: v for k, v in table.items() if ": " in k}
        problems += field_problems(f"branch {bi + 1}", inst, want, set_fields)
        costs = {k: v for k, v in table.items() if ": " not in k}
        want_keys = {f"$${c}{n}" for n in range(len(op["channels"])) for c in "TM"}
        if set(costs) != want_keys:
            problems.append(f"branch {bi + 1}: cost fields {sorted(costs)}")
            continue
        for n, (summands, interval) in enumerate(op["channels"]):
            if _summands(costs[f"$$T{n}"]) != sorted(summands):
                problems.append(f"branch {bi + 1}: $$T{n} = {costs[f'$$T{n}']}")
            if _count(costs[f"$$M{n}"]) != interval:
                problems.append(f"branch {bi + 1}: $$M{n} = {costs[f'$$M{n}']}, "
                                f"expected {interval}")
    return problems, False


def corruptions(cal, op, out) -> list:
    """Outputs the checker must reject: a latency sum missing one edge
    cost, a message count off by one and a lost branch."""
    code, text = out
    data = json.loads(text)
    table = data["sections"][0]["branches"][0]
    short = json.loads(text)
    short["sections"][0]["branches"][0]["$$T0"] = table["$$T0"].replace(f"{COMM} + ", "", 1)
    count = json.loads(text)
    lo, hi = _count(table["$$M0"])
    count["sections"][0]["branches"][0]["$$M0"] = f"limits({lo}, {hi + 1})"
    lost = json.loads(text)
    lost["sections"][0]["branches"].pop()
    return [(code, json.dumps(short)), (code, json.dumps(count)), (code, json.dumps(lost))]
