"""Workload ``mybox-eval``: ``calang --format json eval`` of the paper's
MYBOX box under seeded environments.

The environments vary the threshold side of ``$kv`` against
``$$nthreads*100`` (clause 3 or clause 4 fires), ``$$nthreads``, the shape
dimensions ``n`` and ``m`` and 0-3 extra properties in ``$a``.  The pool is
stratified: each round holds every (extra count, threshold side) pair
once, so every prefix of the stream has the same cost mix for every
seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from common import field_problems, load_report, run_cli, split_top

NAME = "mybox-eval"
MYBOX = Path(__file__).with_name("mybox.cal")
ELEMENT_TYPES = ["real", "int", "complex", "float32", "bool"]
EXTRAS = ["packed(row_major)", "packed(col_major)", "aligned(64)", "owner(p3)",
          "layout(tiled)", "readonly", "device(gpu0)", "stride(1, 8)"]
ROUNDS = 8  # pool = ROUNDS x 4 extra counts x 2 threshold sides
PER_ROUND = 8  # operations in a round
SET_FIELDS = {"$a", "$k", "$b", "$d"}


def generate(cal, seed: int, workdir: Path, rounds: int = ROUNDS) -> list[dict]:
    """Seeded environments, one per operation of a pass over the pool."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        cells = [(extras, above) for extras in range(4) for above in (True, False)]
        rng.shuffle(cells)
        if not ops:  # the warm-up operation is the first: the same cell for every seed
            cells.remove((0, True))
            cells.insert(0, (0, True))
        for extras, above in cells:
            nthreads = rng.choice([1, 2, 3, 4, 8, 16])
            threshold = nthreads * 100
            k = threshold + rng.randint(1, 400) if above else threshold - rng.randint(0, threshold)
            n, m = rng.randint(1, 64), rng.randint(1, 64)
            elem = rng.choice(ELEMENT_TYPES)
            props = rng.sample(EXTRAS, extras)
            a_members = [f"Type(array, element({elem}), rank(2), shape({n}, ({m}, nil)))"] + props
            env = (f"MYBOX.$a = {{{', '.join(a_members)}}}\n"
                   f"MYBOX.$k = {{value({k}), Type(int)}}\n"
                   f"$$nthreads = {nthreads}\n")
            ops.append({"n": n, "m": m, "k": k, "nthreads": nthreads, "elem": elem,
                        "a_members": a_members, "env": env})
    for i, op in enumerate(ops):
        path = workdir / f"mybox-{i}.env"
        path.write_text(op["env"])
        op["argv"] = ["--format", "json", "eval", str(MYBOX), "MYBOX", "--env", str(path)]
    return ops


def describe(op) -> str:
    return op["env"]


def run(cal, op):
    return run_cli(cal, op["argv"])


def render(op, out) -> bytes:
    return out[1].encode()


def expected_table(op) -> dict[str, str]:
    """The MYBOX clauses applied by hand to the generated inputs."""
    n, m, k, nt, elem = op["n"], op["m"], op["k"], op["nthreads"], op["elem"]
    base = f"Type(array, element({elem}), shape({n + 1}, ({m}, nil)))"
    above = k > nt * 100
    table = {
        "fired clauses": "1, 2, 3" if above else "1, 2, 4",
        "$a": "{" + ", ".join(op["a_members"]) + "}",
        "$k": f"{{value({k}), Type(int)}}",
        "$b": f"{{rank(2), {base}}}",
        "$d": f"{{rank(3), {base}}}",
        "$$nthreads": str(nt),
    }
    if above:
        table["$$T0"] = f"{m} * log({m}) / {nt}"
        table["$$T1"] = "1"
    else:
        table["$$T1"] = f"{m} ^ 3/2"
        table["$$M1"] = "0"
    return table


def check(op, out) -> tuple[list[str], bool]:
    code, text = out
    if code != 0:
        return [f"exit code {code}"], False
    data = load_report(text)
    if data is None:
        return ["report is not JSON"], False
    problems = []
    if data.get("status") != "ok":
        problems.append(f"status {data.get('status')!r}")
    if any(d.get("severity") != "note" for d in data.get("diagnostics", [])):
        problems.append("unexpected warning or error diagnostics")
    sections = data.get("sections", [])
    if len(sections) != 1 or len(sections[0].get("branches", [])) != 1:
        return problems + ["expected exactly one section with one branch"], False
    problems += field_problems("MYBOX", sections[0]["branches"][0], expected_table(op),
                               SET_FIELDS)
    return problems, False


def corruptions(cal, op, out) -> list:
    """Outputs the checker must reject: a wrong latency term, a set field
    missing a member and a non-zero exit code."""
    code, text = out
    wrong_cost, missing = json.loads(text), json.loads(text)
    wrong_cost["sections"][0]["branches"][0]["$$T1"] += "0"
    table = missing["sections"][0]["branches"][0]
    table["$d"] = "{" + ", ".join(split_top(table["$d"][1:-1])[1:]) + "}"
    return [(code, json.dumps(wrong_cost)), (code, json.dumps(missing)), (1, text)]
