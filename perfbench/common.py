"""Helpers shared by the workloads: the in-process CLI call and the
parsing of report fields that the reference checkers compare.

Nothing here imports ``calang``; the package is handed in by the runner,
freshly imported, so that its import time can be measured.
"""

from __future__ import annotations

import contextlib
import io
import json


def run_cli(cal, argv: list[str]) -> tuple[int, str]:
    """Call ``calang.cli.main`` in this process and capture its stdout.

    An exception escaping the entry point propagates to the caller, which
    counts the operation as failed.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cal.cli.main(argv)
        except SystemExit as e:  # argparse rejects its arguments
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def split_top(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` where it is not nested in brackets."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail or parts:
        parts.append(tail)
    return parts


def set_members(text: str):
    """The members of a rendered ground set ``{e1, e2}`` as a frozenset of
    their texts, or None when the text is not one brace group.  Set-valued
    fields are compared this way, so a legitimate change of element order
    in the report is not a failure."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        return None
    depth = 0
    for i, c in enumerate(text):
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        if depth == 0 and i < len(text) - 1:  # e.g. "{a} \\/ {b}"
            return None
    return frozenset(split_top(text[1:-1]))


def field_problems(label: str, got: dict, want: dict, set_fields) -> list[str]:
    """Compare one report table with the expected one.  Fields named in
    ``set_fields`` compare as sets, the rest as text without spaces."""
    problems = []
    if set(got) != set(want):
        problems.append(f"{label}: fields {sorted(got)} != expected {sorted(want)}")
    for key, value in want.items():
        if key not in got:
            continue
        if key in set_fields:
            ok = set_members(got[key]) == set_members(value) and set_members(value) is not None
        else:
            ok = got[key].replace(" ", "") == value.replace(" ", "")
        if not ok:
            problems.append(f"{label}: {key} = {got[key]!r}, expected {value!r}")
    return problems


def load_report(text: str):
    """Parse a JSON report; None when it is not one."""
    try:
        data = json.loads(text)
    except ValueError:
        return None
    return data if isinstance(data, dict) else None
