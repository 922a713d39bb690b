"""Command-line front door: check, evaluate, export and aggregate.

Exit codes: 0 for success (also with warnings, unless ``--strict`` makes
warnings exit 2), 1 for errors, an unwritable ``--out`` among them.
Output is deterministic: identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import aggregate as agg
from . import horn, syntax
from .clauses import BoxDeclaration, Diagnostic, SemanticError, evaluate_box
from .terms import term_text
from .unify import BindingStore, resolve

_SEVERITY_RANK = {"note": 0, "warning": 1, "error": 2}

# Errors in the input files; each ends in an error report, not a traceback.
_INPUT_ERRORS = (syntax.CalSyntaxError, SemanticError, agg.NetworkError)


class Report:
    """Collects sections, variable tables and diagnostics; renders as
    human-readable text or JSON with identical content."""

    def __init__(self):
        self.sections: list[dict] = []
        self.diagnostics: list[Diagnostic] = []

    def add_section(self, title: str, tables: list[dict]):
        self.sections.append({"title": title, "branches": tables})

    def extend_diagnostics(self, diags):
        self.diagnostics.extend(diags)

    @property
    def status(self) -> str:
        worst = max((_SEVERITY_RANK.get(d.severity, 0) for d in self.diagnostics), default=0)
        return {0: "ok", 1: "warnings", 2: "errors"}[worst]

    def to_json(self) -> str:
        data = {
            "status": self.status,
            "sections": self.sections,
            "diagnostics": [
                {"severity": d.severity, "message": d.message,
                 "position": str(d.pos) if d.pos else None}
                for d in self.diagnostics
            ],
        }
        return json.dumps(data, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"status: {self.status}"]
        for section in self.sections:
            lines.append("")
            lines.append(f"== {section['title']} ==")
            branches = section["branches"]
            for bi, table in enumerate(branches):
                if len(branches) > 1:
                    lines.append(f"branch {bi + 1} of {len(branches)}:")
                for key, value in table.items():
                    lines.append(f"  {key} = {value}")
        if self.diagnostics:
            lines.append("")
            lines.append("diagnostics:")
            for d in self.diagnostics:
                lines.append(f"  {d}")
        return "\n".join(lines) + "\n"


def _write(text: str, args) -> int:
    """Write the output to ``--out`` or stdout; 1 when the file cannot be
    written, else 0."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
        return 0
    except OSError as e:
        sys.stderr.write(f"error: cannot write {args.out}: {e}\n")
        return 1


def _emit(report: Report, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_text()
    if _write(text, args) or report.status == "errors":
        return 1
    if report.status == "warnings" and args.strict:
        return 2
    return 0


def _store_table(decl: BoxDeclaration, store: BindingStore, fired=None) -> dict[str, str]:
    """The observable content of one evaluation branch, object variables
    first, then environment variables."""
    table: dict[str, str] = {}
    if fired is not None:
        table["fired clauses"] = ", ".join(str(i + 1) for i in fired) if fired else "(none)"
    for name in decl.object_vars:
        var = decl.object_vars[name]
        if store.binding(var) is not None:
            table[f"${name}"] = term_text(resolve(var, store))
    for name in sorted(decl.env_vars):
        var = decl.env_vars[name]
        if store.binding(var) is not None:
            table[f"$${name}"] = term_text(resolve(var, store))
    return table


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    report = Report()
    for decl in agg.load_boxes(*args.files):
        report.extend_diagnostics(agg.check_declaration(decl))
        report.add_section(f"box {decl.name}", [{
            "inputs": "(" + ",".join(decl.inputs) + ")",
            "outputs": ", ".join("(" + ",".join(t) + ")" for t in decl.outputs) or "(none)",
            "clauses": str(len(decl.clauses)),
        }])
    return _emit(report, args)


def cmd_eval(args) -> int:
    by_name = {d.name: d for d in agg.load_boxes(args.calfile)}
    decl = by_name.get(args.box)
    if decl is None:
        raise agg.NetworkError(
            f"no box named {args.box!r} in {args.calfile} "
            f"(found: {', '.join(sorted(by_name)) or 'none'})")
    env = agg.parse_env_file(agg.read_input(args.env)) if args.env else {}
    store = agg.instance_input_store(decl, (decl.name,), env)

    ev = evaluate_box(decl, store)
    report = Report()
    report.extend_diagnostics(ev.diagnostics)
    tables = [_store_table(decl, br.store, br.fired) for br in ev.branches]
    report.add_section(f"box {decl.name}", tables)
    return _emit(report, args)


def cmd_horn(args) -> int:
    return _write(horn.export_horn(agg.load_boxes(*args.files)), args)


def cmd_aggregate(args) -> int:
    networks = agg.parse_network_file(agg.read_input(args.net), base_dir=Path(args.net).parent)
    env = agg.parse_env_file(agg.read_input(args.env)) if args.env else {}
    report = Report()
    for net in networks:
        try:
            store = agg.network_input_store(net, env)
            ev = agg.aggregate_functional(net, store)
        except agg.NetworkError as e:
            report.extend_diagnostics([Diagnostic("error", str(e))])
            continue
        report.extend_diagnostics(ev.diagnostics)
        tables = []
        for br in ev.branches:
            table: dict[str, str] = {}
            for inst in net.instances():
                fired = br.fired.get(inst.name, ())
                for key, value in _store_table(inst.decl, br.store, fired).items():
                    table[f"{inst.name}: {key}"] = value
            costs = agg.aggregate_extrafunctional(net.expr, br.store)
            for n, (latency, _) in enumerate(costs):
                table[f"$$T{n}"] = term_text(latency)
            for n, (_, messages) in enumerate(costs):
                table[f"$$M{n}"] = term_text(messages)
            tables.append(table)
        report.add_section(f"net {net.name}", tables)
    return _emit(report, args)


@functools.cache  # built on the first call; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calang",
        description="Check, evaluate, export and aggregate CAL box specifications.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--strict", action="store_true",
                        help="exit with status 2 when there are warnings")
    parser.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate declarations")
    p.add_argument("files", nargs="+", metavar="FILE.cal")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate one box against an environment")
    p.add_argument("calfile", metavar="FILE.cal")
    p.add_argument("box", metavar="BOXNAME")
    p.add_argument("--env", metavar="ENVFILE", help="environment associations")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("horn", help="export declarations as Horn clauses")
    p.add_argument("files", nargs="+", metavar="FILE.cal")
    p.set_defaults(func=cmd_horn)

    p = sub.add_parser("aggregate", help="aggregate constraints over a network")
    p.add_argument("--net", required=True, metavar="NETFILE", help="network description file")
    p.add_argument("--env", metavar="ENVFILE", help="environment associations")
    p.set_defaults(func=cmd_aggregate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        if args.command == "horn":
            sys.stderr.write(f"error: {e}\n")
            return 1
        report = Report()
        report.extend_diagnostics([Diagnostic("error", str(e))])
        return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
