"""Workload ``spec-front``: ``calang --format json check`` and
``calang horn`` on generated specification files.

Each file holds 20-60 box declarations from a seeded generator modelled
on the acceptance suite's declaration generator, with provided blocks
nested up to two deep.  Each round of the pool has one file per size
step from 20 to 60 declarations, each checked and exported once, and
the structure of the declarations comes from a fixed design seed (see
:class:`DeclGenerator`), so every prefix of the stream costs the same
for every seed.  The time goes to the front end
(tokenizer, parser, desugaring, provided flattening, Horn export and
vocabulary checks), with almost no unification.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from common import load_report, run_cli

NAME = "spec-front"
SIZES = range(20, 61, 5)
ROUNDS = 8
PER_ROUND = 2 * len(SIZES)  # one file per size, checked and exported
DESIGN_SEED = 1101


class DeclGenerator:
    """Random declarations plus the counts an independent checker needs:
    per box, its name, signature, flattened clause count and assertion
    count (the number of Horn clauses it exports).

    Two generators drive it.  ``shape`` makes every structural choice
    (term kinds and depths, argument counts, clauses, provided blocks,
    signatures), ``leaf`` every name, number and operator.  The parse
    and export cost of a file follows its shape, so a fixed shape
    generator gives every seed the same cost while the seed still draws
    all the text."""

    def __init__(self, shape: random.Random, leaf: random.Random):
        self.shape, self.leaf = shape, leaf

    def name(self):
        return self.leaf.choice("abcdefgh") + self.leaf.choice("xyz0189")

    def term(self, depth, fields):
        shape, leaf = self.shape, self.leaf
        r = shape.random()
        if depth <= 0 or r < 0.25:
            return leaf.choice([
                str(leaf.randint(0, 99)),
                f"{leaf.randint(1, 9)}/{leaf.randint(2, 9)}",
                self.name(),
                "$" + leaf.choice(fields + ["loc", "aux"]),
                "$$env" + str(leaf.randint(0, 2)),
                "$_",
            ])
        if r < 0.45:
            op = leaf.choice(["+", "-", "*", "/", "^"])
            return f"{self.term(depth - 1, fields)} {op} {self.term(depth - 1, fields)}"
        if r < 0.6:
            args = ", ".join(self.term(depth - 1, fields) for _ in range(shape.randint(1, 3)))
            return f"{self.name()}({args})"
        if r < 0.75:
            members = ", ".join(self.term(depth - 1, fields) for _ in range(shape.randint(2, 3)))
            return f"({members})"
        if r < 0.9:
            members = ", ".join(self.term(0, fields) for _ in range(shape.randint(0, 3)))
            return "{%s}" % members
        return "{%s} \\/ $%s" % (self.term(0, fields), leaf.choice(["u", "v", "w"]))

    def predicate(self, fields):
        leaf = self.leaf
        if self.shape.random() < 0.5:
            lhs = leaf.choice(["$" + leaf.choice(fields + ["loc"]), str(leaf.randint(0, 9))])
            op = leaf.choice(["=", ">", "<", ">=", "<=", "!="])
            return f"{lhs} {op} {self.term(2, fields)}"
        return f"{self.term(2, fields)} :=: {self.term(2, fields)}"

    def entry(self, fields, depth) -> tuple[str, list[int]]:
        """One clause or provided block: its text and the assertion count
        of every clause it flattens to."""
        shape = self.shape
        if depth > 0 and shape.random() < 0.3:
            conds = ", ".join(self.predicate(fields) for _ in range(shape.randint(1, 2)))
            inner = [self.entry(fields, depth - 1) for _ in range(shape.randint(1, 3))]
            body = "\n".join(text for text, _ in inner)
            return f"provided {conds} use\n{body}\nend;", [k for _, ks in inner for k in ks]
        m, k = shape.randint(0, 3), shape.randint(1, 3)
        conds = ", ".join(self.predicate(fields) for _ in range(m))
        asserts = ", ".join(self.predicate(fields) for _ in range(k))
        return (f"{conds} => {asserts};" if conds else f"=> {asserts};"), [k]

    def declaration(self) -> tuple[str, dict]:
        shape = self.shape
        fields_in = [f"i{k}" for k in range(shape.randint(0, 3))]
        outs = [[f"o{t}{k}" for k in range(shape.randint(1, 3))] for t in range(shape.randint(0, 2))]
        fields = fields_in + [f for tup in outs for f in tup]
        name = f"B{self.leaf.randint(0, 999)}"
        header = (f"box {name} (({','.join(fields_in)}) -> "
                  f"{', '.join('(' + ','.join(t) + ')' for t in outs)}):")
        entries = [self.entry(fields or ["x"], 2) for _ in range(shape.randint(0, 4))]
        asserts = [k for _, ks in entries for k in ks]
        info = {"name": name, "inputs": "(" + ",".join(fields_in) + ")",
                "outputs": ", ".join("(" + ",".join(t) + ")" for t in outs) or "(none)",
                "clauses": len(asserts), "asserts": sum(asserts)}
        return "\n".join([header] + [text for text, _ in entries]), info


def generate(cal, seed: int, workdir: Path, rounds: int = ROUNDS) -> list[dict]:
    """Seeded specification files, one round after the other; the seed
    draws the text of every file and the order of the files in a round."""
    leaf = random.Random(seed)
    gen = DeclGenerator(random.Random(DESIGN_SEED), leaf)
    ops = []
    for r in range(rounds):
        files = [[gen.declaration() for _ in range(size)] for size in SIZES]
        order = leaf.sample(files, len(files))
        if r == 0:  # the warm-up operation is the first: the smallest file for every seed
            order.remove(files[0])
            order.insert(0, files[0])
        for decls in order:
            source = "\n\n".join(text for text, _ in decls) + "\n"
            path = workdir / f"spec-{len(ops) // 2}.cal"
            path.write_text(source)
            boxes = [info for _, info in decls]
            ops.append({"command": "check", "boxes": boxes, "source": source,
                        "argv": ["--format", "json", "check", str(path)]})
            ops.append({"command": "horn", "boxes": boxes, "source": source,
                        "argv": ["horn", str(path)]})
    return ops


def describe(op) -> str:
    return op["command"] + "\n" + op["source"]


def run(cal, op):
    return run_cli(cal, op["argv"])


def render(op, out) -> bytes:
    return out[1].encode()


def _check_report(op, text) -> list[str]:
    data = load_report(text)
    if data is None:
        return ["report is not JSON"]
    problems = []
    if data.get("status") not in ("ok", "warnings"):
        problems.append(f"status {data.get('status')!r}")
    sections = data.get("sections", [])
    if len(sections) != len(op["boxes"]):
        return problems + [f"{len(sections)} sections for {len(op['boxes'])} boxes"]
    for sec, box in zip(sections, op["boxes"]):
        want = {"inputs": box["inputs"], "outputs": box["outputs"], "clauses": str(box["clauses"])}
        got = sec["branches"][0] if len(sec.get("branches", [])) == 1 else None
        if sec.get("title") != f"box {box['name']}" or got != want:
            problems.append(f"box {box['name']}: {got} != {want}")
            break
    return problems


def _horn_export(op, text) -> list[str]:
    """Per box: the clause comment count and the Horn clause count, read
    back from the export."""
    got: list[list] = []
    for line in text.splitlines():
        if line.startswith("% box "):
            got.append([line[6:], 0, 0])
        elif line.startswith("% (no clauses)"):
            continue
        elif line.startswith("%"):
            if got:
                got[-1][1] += 1
        elif line.strip() and got:
            got[-1][2] += 1
    want = [[b["name"], b["clauses"], b["asserts"]] for b in op["boxes"]]
    if got != want:
        for g, w in zip(got + [None] * len(want), want):
            if g != w:
                return [f"horn export: box {w[0]} has (name, clauses, horn clauses) "
                        f"{g}, expected {w}"]
        return [f"horn export has {len(got)} boxes, expected {len(want)}"]
    return []


def check(op, out) -> tuple[list[str], bool]:
    code, text = out
    if code != 0:
        return [f"exit code {code}"], False
    if op["command"] == "check":
        return _check_report(op, text), False
    return _horn_export(op, text), False


def corruptions(cal, op, out) -> list:
    """Outputs the checker must reject: one box's clause count off by one
    (check), one Horn clause missing (horn), and a non-zero exit code."""
    code, text = out
    if op["command"] == "check":
        data = json.loads(text)
        table = data["sections"][-1]["branches"][0]
        table["clauses"] = str(int(table["clauses"]) + 1)
        return [(code, json.dumps(data)), (1, text)]
    lines = text.splitlines()
    drop = next((i for i, ln in enumerate(lines) if ln and not ln.startswith("%")), None)
    if drop is None:
        return [(1, text)]
    return [(code, "\n".join(lines[:drop] + lines[drop + 1:]) + "\n"), (1, text)]
