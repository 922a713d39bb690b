"""Per-layer tracing from outside the program.

Every public function named in ``layers.json`` is replaced, for the
traced run only, by a wrapper that times it and counts its calls.  The
wrapper is installed wherever ``calang`` binds the function: in its own
module and in every module that imported it by name (``cli`` imports
``evaluate_box``, ``flatten_provided`` and ``resolve``, for example).
Methods are wrapped on their class.

A function's self time is its wall time minus the wall time of the
wrapped calls made inside it, so nested and recursive calls are not
counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())


class Stat:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0  # a function-specific work count, see COUNTERS


COUNTERS = {
    # What each wrapped call adds to its function's work count.
    "syntax.tokenize": len,
    "unify.unify_sets": len,
    "clauses.fire_clause": lambda r: int(r.condition_held),
    "clauses.evaluate_box": lambda r: len(r.branches),
    "aggregate.aggregate_functional": lambda r: len(r.branches),
    "horn.export_horn": lambda r: sum(1 for ln in r.splitlines() if ln and ln[0] != "%"),
    "cli.Report.to_json": lambda r: len(r.encode()),
    "cli.Report.to_text": lambda r: len(r.encode()),
}


class Tracer:
    """Installs the wrappers on the imported ``calang`` and collects
    their statistics until :meth:`remove` restores the originals."""

    def __init__(self):
        self.stats = {key: Stat() for key in LAYERS["functions"]}
        self.store_sizes = 0  # sum of store sizes seen by BindingStore.bind
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "calang" or name.startswith("calang."))]
        for key in LAYERS["functions"]:
            modname, *path = key.split(".")
            owner = sys.modules[f"calang.{modname}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(key, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        counter = COUNTERS.get(key)
        clock = time.perf_counter
        is_bind = key == "unify.BindingStore.bind"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - children
            if counter is not None:
                stat.count += counter(result)
            if is_bind:
                self.store_sizes += len(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, ops: int, mismatches: int, overhead: float,
                scale: float) -> dict[str, dict]:
        """The per-layer metrics of ``layers.json``, per traced operation.
        ``scale`` converts wall time to time at reference speed."""
        s = self.stats

        def ms(key):
            return s[key].self_s * scale * 1e3 / ops

        def calls(key):
            return s[key].calls / ops

        def ratio(a, b):
            return a / b if b else 0.0

        tok, sets, binds = s["syntax.tokenize"], s["unify.unify_sets"], s["unify.BindingStore.bind"]
        report = [s["cli.Report.to_json"], s["cli.Report.to_text"]]
        values = {
            "syntax.tokenize_ms": ms("syntax.tokenize"),
            "syntax.tokens": tok.count / ops,
            "syntax.tokens_per_s": ratio(tok.count, tok.self_s * scale),
            "syntax.parse_program_ms": ms("syntax.parse_program"),
            "terms.desugar_ms": ms("terms.desugar"),
            "clauses.flatten_provided_ms": ms("clauses.flatten_provided"),
            "horn.export_horn_ms": ms("horn.export_horn"),
            "horn.horn_clauses": s["horn.export_horn"].count / ops,
            "aggregate.check_declaration_ms": ms("aggregate.check_declaration"),
            "clauses.evaluate_box_ms": ms("clauses.evaluate_box"),
            "clauses.fire_clause_calls": calls("clauses.fire_clause"),
            "clauses.fired_frac": ratio(s["clauses.fire_clause"].count,
                                        s["clauses.fire_clause"].calls),
            "clauses.branches_out": ratio(s["clauses.evaluate_box"].count,
                                          s["clauses.evaluate_box"].calls),
            "arith.eval_relation_ms": ms("arith.eval_relation"),
            "arith.eval_relation_calls": calls("arith.eval_relation"),
            "unify.unify_sets_ms": ms("unify.unify_sets"),
            "unify.unify_sets_calls": calls("unify.unify_sets"),
            "unify.set_solutions": sets.count / ops,
            "unify.solutions_per_call": ratio(sets.count, sets.calls),
            "unify.is_instance_of_ms": ms("unify.is_instance_of"),
            "unify.is_instance_of_calls": calls("unify.is_instance_of"),
            "unify.unify_ms": ms("unify.unify"),
            "unify.unify_calls": calls("unify.unify"),
            "unify.resolve_ms": ms("unify.resolve"),
            "unify.resolve_calls": calls("unify.resolve"),
            "unify.order_mismatch": mismatches / ops,
            "unify.bind_ms": ms("unify.BindingStore.bind"),
            "unify.bind_calls": calls("unify.BindingStore.bind"),
            "unify.store_size_mean": ratio(self.store_sizes, binds.calls),
            "aggregate.parse_network_file_ms": ms("aggregate.parse_network_file"),
            "aggregate.clone_declaration_ms": ms("aggregate.clone_declaration"),
            "aggregate.network_input_store_ms": ms("aggregate.network_input_store"),
            "aggregate.aggregate_functional_ms": ms("aggregate.aggregate_functional"),
            "aggregate.aggregate_extrafunctional_ms": ms("aggregate.aggregate_extrafunctional"),
            "aggregate.instances": calls("aggregate.clone_declaration"),
            "aggregate.branches_out": ratio(s["aggregate.aggregate_functional"].count,
                                            s["aggregate.aggregate_functional"].calls),
            "cli.report_ms": sum(r.self_s for r in report) * scale * 1e3 / ops,
            "cli.report_bytes": sum(r.count for r in report) / ops,
            "trace.overhead_frac": overhead,
            "trace.ops": float(ops),
        }
        units = {m["name"]: m["unit"] for m in LAYERS["metrics"]}
        if set(values) != set(units):
            raise RuntimeError(f"layers.json and the tracer disagree on {set(values) ^ set(units)}")
        return {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    def coverage_problems(self, workload: str) -> list[str]:
        """Wrapped functions that the layer table says this workload
        exercises but that were never called: a wrapper that missed an
        importer shows up here."""
        return [f"{key} was not called on {workload}"
                for key, workloads in LAYERS["functions"].items()
                if workload in workloads and self.stats[key].calls == 0]
