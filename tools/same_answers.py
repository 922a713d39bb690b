"""Answer-equivalence gate: do two source trees give the same answers?

Usage, from the root of the repository:

    python3 tools/same_answers.py --src PARENT_TREE --src .

``--src`` names the root of a checkout (the directory holding
``src/calang``) and may be repeated.  For each tree the script prints one
hash per corpus:

* ``criterion-2``: every solution of ``unify``, which hands two sets to
  ``unify_sets`` as written, as its ``solution_snapshot``, for all pairs
  of the acceptance suite's criterion-2 universe (one union variable
  shared by both sides), in the order returned;
* ``distinct-union``: the same dump over pairs whose sides have distinct
  union variables ``$v`` and ``$w``;
* ``ladder``: the same dump over the rungs k=1 to k=3 of the
  ``set-equations`` ladder, ``{$x1..$xk} \\/ $v ~ {s1..sk} \\/ $w``, in
  both operand orders;
* ``nested``: the same dump over pairs whose members may hold a set,
  open in one of the union variables ``$v`` and ``$w``, as
  ``f({} \\/ $v)``, or closed, as ``f({a})``; a member that holds one of
  the equation's own union variables makes it not flat, which no other
  set corpus reaches;
* ``anonymous``: the same dump over the criterion-2 pairs whose right
  side is open, with that side's union variable written as ``$_``, a
  variable no report shows, so set unification neither keys nor forks
  on it; the snapshot still shows it;
* ``reports``: the exit code, standard output and standard error of every
  ``check``, ``eval``, ``horn`` and ``aggregate`` report, in text and in
  JSON, on ``tests/fixtures`` (``check`` and ``horn`` also on all its
  ``.cal`` files at once) and on the inputs that the benchmark's
  ``mybox-eval``, ``spec-front`` and ``net-aggregate`` generators write
  for seeds 1-4.

Beside its hashes, each tree's ``src/calang`` line count is printed, the
count of newlines that ``wc -l`` gives; it is never compared.  When a
corpus hashes differently in two trees, the script prints how many of its
items differ and the first three: an item is a pair of a set corpus, or a
command of ``reports`` with its format.  For ``reports`` it also prints
how many of the differing items each subcommand has, so a change meant to
touch only ``horn`` reports shows that it did.

The inputs are generated once, into a temporary directory, so every tree
reads the same files; reports name them by paths relative to that
directory, so the hashes are the same from one run to the next.  Each tree runs in a child
process of its own.  Nothing is written into the repository: the
generators are imported read-only and no bytecode is cached.  The exit
code is 0 when every tree gives the same hashes, else 1.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SEEDS = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# Inputs, generated once in the parent process
# ---------------------------------------------------------------------------

def generate_commands(workdir: Path) -> list[list[str]]:
    """Every CLI command of the ``reports`` corpus, without ``--format``.

    File arguments are relative to ``workdir``, into which the fixtures
    and the benchmark's MYBOX file are copied, so the reports and their
    hashes do not depend on where the directory is.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import wl_mybox
    import wl_net
    import wl_spec

    fixtures = shutil.copytree(FIXTURES, workdir / "fixtures")
    envs = [[]] + [["--env", str(p)] for p in sorted(fixtures.glob("*.env"))]
    cals = [str(cal) for cal in sorted(fixtures.glob("*.cal"))]
    commands = [["check"] + cals, ["horn"] + cals]
    for cal in sorted(fixtures.glob("*.cal")):
        commands += [["check", str(cal)], ["horn", str(cal)]]
        for box in re.findall(r"^box (\w+)", cal.read_text(), re.M):
            commands += [["eval", str(cal), box] + env for env in envs]
    for net in sorted(fixtures.glob("*.net")):
        commands += [["aggregate", "--net", str(net)] + env for env in envs]

    for seed in SEEDS:
        for wl in (wl_mybox, wl_spec, wl_net):
            out = workdir / f"{wl.NAME}-{seed}"
            out.mkdir()
            for op in wl.generate(None, seed, out):
                argv = op["argv"]
                commands.append(argv[2:] if argv[0] == "--format" else argv)

    def local(arg: str) -> str:
        path = Path(arg)
        if not (path.is_absolute() and path.is_file()):
            return arg
        if workdir not in path.parents:
            path = Path(shutil.copy(path, workdir))
        return str(path.relative_to(workdir))

    return [[local(arg) for arg in argv] for argv in commands]


# ---------------------------------------------------------------------------
# Hashes, computed in a child process against one tree
# ---------------------------------------------------------------------------

def _item(name: str, label: str, data: bytes, digest) -> None:
    """Add one item's bytes to its corpus digest, and print the item's own
    hash for the parent process to compare."""
    digest.update(data)
    print(f"item\t{name}\t{label}\t{hashlib.sha256(data).hexdigest()}")


def _solution_dump(name: str, pairs, digest) -> int:
    """Hash every solution of every pair; return the number of solutions."""
    from calang.terms import term_text
    from calang.unify import BindingStore, _relevant_vars, solution_snapshot, unify

    count = 0
    for t1, t2 in pairs:
        rvars = _relevant_vars([t1, t2], BindingStore())
        data = [repr((t1, t2)).encode()]
        for s in unify(t1, t2, BindingStore()):
            data.append(repr(solution_snapshot(s, rvars)).encode())
            count += 1
        _item(name, f"{term_text(t1)} ~ {term_text(t2)}", b"".join(data) + b"\n", digest)
    return count


def _universes():
    from calang.terms import ANONYMOUS, LOCAL, SetTerm, Sym, Tup, Var

    a, b, c = Sym("a"), Sym("b"), Sym("c")
    x, y = Var(("u", 0), "x", LOCAL), Var(("u", 1), "y", LOCAL)
    v, w = Var(("u", 2), "v", LOCAL), Var(("u", 3), "w", LOCAL)

    # tests/test_acceptance.py, criterion 2: up to two members of the
    # pool, with and without the shared union variable.
    pool = [a, b, c, x, y, Tup((a, x)), Tup((b, y))]
    terms = [SetTerm(elems, uv) for k in range(3)
             for elems in itertools.combinations(pool, k) for uv in ([], [v])]
    shared = [(t1, t2) for t1 in terms for t2 in terms]
    hidden = Var(("u", 4), "_", ANONYMOUS)
    anonymous = [(t1, SetTerm(t2.elements, [hidden])) for t1, t2 in shared if t2.union_vars]

    # Distinct union variables on the two sides, at most three members in
    # all: two members a side against two with both union variables takes
    # seconds a pair.
    pool = [a, b, x, y, Tup((a, x))]
    sides = [elems for k in range(3) for elems in itertools.combinations(pool, k)]
    distinct = [(SetTerm(e1, u1), SetTerm(e2, u2))
                for e1 in sides for e2 in sides if len(e1) + len(e2) <= 3
                for u1 in ([], [v]) for u2 in ([], [w])]

    # The ladder rungs k=1 to k=3 of the set-equations workload.
    rungs = [(SetTerm([Var(("u", 200 + i), f"x{i + 1}", LOCAL) for i in range(k)], [v]),
              SetTerm([a, b, c][:k], [w])) for k in (1, 2, 3)]
    ladder = rungs + [(t2, t1) for t1, t2 in rungs]

    # Members that hold a set, open in either union variable or closed:
    # up to two members a side, at most three in all, and $v or $w on
    # each side.
    f = Sym("f")
    pool = [a, b, x, Tup((f, SetTerm([], [v]))), Tup((f, SetTerm([a], [w]))),
            Tup((f, SetTerm([a]))), Tup((f, SetTerm([b])))]
    sides = [elems for k in range(3) for elems in itertools.combinations(pool, k)]
    nested = [(SetTerm(e1, [u1]), SetTerm(e2, [u2]))
              for e1 in sides for e2 in sides if len(e1) + len(e2) <= 3
              for u1 in (v, w) for u2 in (v, w)]
    return shared, distinct, ladder, nested, anonymous


def child(commands_file: str) -> None:
    from calang import cli

    shared, distinct, ladder, nested, anonymous = _universes()
    for name, pairs in (("criterion-2", shared), ("distinct-union", distinct),
                        ("ladder", ladder), ("nested", nested), ("anonymous", anonymous)):
        digest = hashlib.sha256()
        solutions = _solution_dump(name, pairs, digest)
        print(f"{name}: {len(pairs)} pairs, {solutions} solutions, {digest.hexdigest()}",
              flush=True)

    commands = [line.split("\0") for line in Path(commands_file).read_text().splitlines()]
    digest = hashlib.sha256()
    count = 0
    for argv, fmt in itertools.product(commands, ("text", "json")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", fmt] + argv)
        _item("reports", " ".join(["--format", fmt] + argv),
              repr((fmt, argv, code, out.getvalue(), err.getvalue())).encode(), digest)
        count += 1
    print(f"reports: {count} reports, {digest.hexdigest()}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="TREE",
                        help="root of a checkout holding src/calang (repeatable)")
    parser.add_argument("--child", metavar="COMMANDS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0

    results = {}
    with tempfile.TemporaryDirectory(prefix="same-answers-") as tmp:
        commands = generate_commands(Path(tmp).resolve())
        commands_file = Path(tmp) / "commands"
        commands_file.write_text("".join("\0".join(c) + "\n" for c in commands))
        for tree in args.src:
            src = Path(tree).resolve() / "src"
            if not (src / "calang").is_dir():
                parser.error(f"no src/calang under {tree}")
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run(
                [sys.executable, __file__, "--src", tree, "--child", str(commands_file)],
                env=env, cwd=tmp, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            lines = sum(p.read_text().count("\n") for p in (src / "calang").rglob("*.py"))
            print(f"{tree}: src/calang has {lines} lines")
            hashes, items = {}, {}
            for line in proc.stdout.splitlines():
                if line.startswith("item\t"):
                    _, name, label, digest = line.split("\t")
                    items.setdefault(name, []).append((label, digest))
                else:
                    print(line)
                    hashes[line.split(":")[0]] = line
            results[tree] = hashes, items
    first, (hashes, items) = next(iter(results.items()))
    for tree, (other_hashes, other_items) in results.items():
        for name, line in hashes.items():
            if other_hashes.get(name) != line:
                differ = [label for (label, a), (_, b) in zip(items[name], other_items[name])
                          if a != b]
                per_command = ""
                if name == "reports":  # a label is "--format FORMAT COMMAND ..."
                    counts = collections.Counter(label.split()[2] for label in differ)
                    per_command = " (" + ", ".join(
                        f"{command} {counts[command]}"
                        for command in ("check", "eval", "horn", "aggregate")) + ")"
                print(f"{name}: {len(differ)} of {len(items[name])} items differ between "
                      f"{first} and {tree}{per_command}, first:")
                for label in differ[:3]:
                    print(f"  {label}")
    same = all(h == hashes for h, _ in results.values())
    print("same answers" if same else "ANSWERS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
