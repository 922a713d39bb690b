"""Network aggregation against an oracle that owes nothing to calang's
cost functions.

The networks are built as the ``net-aggregate`` benchmark builds them:
relay chains, a head box fanned out by ``|`` into chains, and boxes that
pass a ``\\/ $r`` remainder on, so that each of them doubles the
branches.  Every box asserts its own latency ``$$T0`` and message-count
range ``$$M0``.  Each network goes through ``calang aggregate``, and the
report must say what is derived here from the boxes alone:

* ``$$Tn`` is the serial sum of the latencies on channel n's path, with
  one ``comm_cost`` per edge; ``|`` passes each path's sum through;
* ``$$Mn`` is the least and the greatest of the exhaustive products of
  the count ranges on that path, the least being 0 after a fan-out edge;
* there is one branch per relay, two per remainder box, and the product
  over ``|``; the branches are those of evaluating each box alone with
  ``evaluate_box`` on each output of its upstream box.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hypothesis import given, settings, strategies as st

from calang import syntax
from calang.cli import main
from calang.clauses import evaluate_box, parse_box
from calang.terms import PLUS, Sym, Tup, desugar, term_text
from calang.unify import BindingStore, resolve

INPUT = "{value(7), tag(1)}"
MAX_REMAINDERS = 3  # at most 8 branches a network


@dataclass
class Box:
    name: str
    t: int
    m: tuple[int, int]
    remainder: bool

    def source(self) -> str:
        lo, hi = self.m
        count = str(lo) if lo == hi else f"limits({lo}, {hi})"
        rest, out = (("$r", "{value($v)} \\/ $r") if self.remainder
                     else ("$_", "{value($v), Type(int)}"))
        return (f"box {self.name} ((x) -> (y)): $x :=: {{value($v)}} \\/ {rest} "
                f"=> $y :=: {out}, $$T0 :=: {self.t}, $$M0 :=: {count};\n")


# A component of the network's top-level "|": a chain of boxes, or a head
# box fanned out into chains.
@dataclass
class Component:
    head: Optional[Box]
    chains: list[list[Box]]

    def text(self) -> str:
        chains = [" .. ".join(b.name for b in c) for c in self.chains]
        return chains[0] if self.head is None else f"{self.head.name} .. ({' | '.join(chains)})"

    def paths(self) -> list[list[Box]]:
        """The boxes on each output channel's path, upstream first."""
        return [([self.head] if self.head else []) + c for c in self.chains]

    def boxes(self) -> list[tuple[Box, Optional[Box]]]:
        """Every box with its upstream box, in network order."""
        out = [(self.head, None)] if self.head else []
        for c in self.chains:
            out += zip(c, [self.head] + c[:-1])
        return out


BOX = st.tuples(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2),
                st.integers(0, 3).map(lambda k: k == 0))
CHAIN = st.lists(BOX, min_size=1, max_size=3)
FANOUT = st.tuples(BOX, st.lists(st.lists(BOX, min_size=1, max_size=2), min_size=2, max_size=3))


@st.composite
def networks(draw) -> list[Component]:
    raw = draw(st.lists(st.one_of(CHAIN.map(lambda c: (None, [c])), FANOUT),
                        min_size=1, max_size=2))
    names = itertools.count()
    remainders = 0

    def box(spec) -> Box:
        nonlocal remainders
        t, lo, extra, remainder = spec
        remainder = remainder and remainders < MAX_REMAINDERS
        remainders += remainder
        return Box(f"B{next(names)}", t, (lo, lo + extra), remainder)

    return [Component(None if head is None else box(head), [[box(s) for s in c] for c in chains])
            for head, chains in raw]


def aggregate(components: list[Component]) -> dict:
    """The JSON report of ``calang aggregate`` on the network."""
    boxes = [b for comp in components for b, _ in comp.boxes()]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "lib.cal").write_text("".join(b.source() for b in boxes))
        (d / "m.net").write_text(
            f"use lib.cal\nnet m = {' | '.join(c.text() for c in components)}\n")
        (d / "m.env").write_text("".join(f"{c.paths()[0][0].name}.$x = {INPUT}\n"
                                         for c in components))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", "aggregate", "--net", str(d / "m.net"),
                         "--env", str(d / "m.env")])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue())


def summands(text: str) -> list[str]:
    """The summands of a rendered sum, left to right, whatever its bracketing."""
    def walk(t):
        if isinstance(t, Tup) and t.head == Sym(PLUS):
            return [s for m in t.members[1:] for s in walk(m)]
        return [term_text(t)]
    return walk(desugar(syntax.parse_term(text)))


def expected_costs(components: list[Component]) -> dict[str, object]:
    costs: dict[str, object] = {}
    paths = [(p, comp.head is not None) for comp in components for p in comp.paths()]
    for n, (path, fanned) in enumerate(paths):
        costs[f"$$T{n}"] = [s for i, b in enumerate(path)
                            for s in (["comm_cost"] if i else []) + [str(b.t)]]
        products = [math.prod(c) for c in
                    itertools.product(*(range(lo, hi + 1) for lo, hi in (b.m for b in path)))]
        lo, hi = (0 if fanned else min(products)), max(products)
        costs[f"$$M{n}"] = str(lo) if lo == hi else f"limits({lo}, {hi})"
    return costs


def oracle_branches(components: list[Component]) -> list[dict[str, str]]:
    """The instance entries of every branch, from each box evaluated alone."""
    decls: dict[str, object] = {}
    branches: list[dict] = [{}]  # box name -> (table, resolved $y)
    for comp in components:
        for box, up in comp.boxes():
            decl = decls.setdefault(box.name, parse_box(box.source()))
            grown = []
            for br in branches:
                x = desugar(syntax.parse_term(INPUT)) if up is None else br[up.name][1]
                inputs = BindingStore().bind(decl.object_vars["x"], x)
                for sub in evaluate_box(decl, inputs).branches:
                    table = {"fired clauses": ", ".join(str(i + 1) for i in sub.fired)}
                    for name, var in decl.object_vars.items():
                        table[f"${name}"] = term_text(resolve(var, sub.store))
                    for name, var in decl.env_vars.items():
                        table[f"$${name}"] = term_text(resolve(var, sub.store))
                    y = resolve(decl.object_vars["y"], sub.store)
                    grown.append({**br, box.name: (table, y)})
            branches = grown
    return [{f"{name}: {k}": v for name, (table, _) in br.items() for k, v in table.items()}
            for br in branches]


def _canonical(tables: list[dict[str, str]]) -> list[list[tuple[str, str]]]:
    return sorted(sorted(t.items()) for t in tables)


@settings(max_examples=40, deadline=None)
@given(networks())
def test_aggregate_matches_the_oracle(components):
    report = aggregate(components)
    assert report["status"] == "ok" and not report["diagnostics"]
    (section,) = report["sections"]
    branches = section["branches"]
    remainders = sum(b.remainder for comp in components for b, _ in comp.boxes())
    assert len(branches) == 2 ** remainders

    want = expected_costs(components)
    for table in branches:
        costs = {k: v for k, v in table.items() if ": " not in k}
        assert set(costs) == set(want)
        for key, value in costs.items():
            assert (summands(value) if key.startswith("$$T") else value) == want[key], key

    instances = [{k: v for k, v in t.items() if ": " in k} for t in branches]
    assert _canonical(instances) == _canonical(oracle_branches(components))
