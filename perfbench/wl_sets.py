"""Workload ``set-equations``: ``calang.unify_sets`` on seeded random set
equations, called with the operands in both orders.

Each side is ``{e1, e2} \\/ u`` with 0-2 elements drawn from symbols,
element variables and tuples that hold a variable; each side has its own
union variable or both sides share one.  A round holds one random
equation per (left shape, right shape, sharing) signature, so every
prefix of the stream has the same mix of sizes.  How long an equation
takes also depends on which of its symbols and variables coincide, so
the shapes and coincidences are drawn from a fixed design seed and the
run's seed draws the names, the element and operand order and the order
within a round: every seed's stream then has the same cost.
2-vs-2 equations with two distinct union variables take 10 ms to 2 s
each depending on the draw, which would make throughput follow the seed;
that class is represented by the ladder rung k=2 instead.  The ladder
rungs ``{x1..xk} \\/ v ~ {s1..sk} \\/ w`` for k=1 and k=2 close every
round; k=3 (133 s at the seed commit) stays out.

The checker is independent of ``calang.unify``: it resolves solutions
with its own substitution, enumerates ground unifiers over a small
universe and matches them against the solutions with its own matcher.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

NAME = "set-equations"
KINDS = ("sym", "var", "tup")
SIDES = [()] + [(k,) for k in KINDS] + list(itertools.combinations_with_replacement(KINDS, 2))
SYMBOLS = ["a", "b", "c"]  # design names; tuple heads are the first two
ELEMENT_VARS = ["x", "y", "z"]
SYMBOL_POOL = ["a", "b", "c", "d", "e", "f", "g", "h"]
VAR_POOL = ["x", "y", "z", "p", "q", "r", "s", "t"]
DESIGN_SEED = 1101
ROUNDS = 10
LADDER = (1, 2)


class Equation:
    """One operation: the two operands, their variables in a fixed order
    (element variables, then union variables) and the ground individuals
    of the completeness oracle: the equation's three symbols and the pair
    of its first symbol."""

    def __init__(self, left, right, elem_vars, union_vars, text, symbols):
        self.left, self.right = left, right
        self.elem_vars, self.union_vars = elem_vars, union_vars
        self.text = text
        a, b, c = (("s", x) for x in symbols)
        self.ground = (a, b, c, ("t", (a, a)))


def _signatures() -> list:
    return [(sl, sr, shared)
            for sl, sr in itertools.combinations_with_replacement(SIDES, 2)
            for shared in (False, True)
            # 2-vs-2 with two union variables: covered by the ladder rung k=2
            if not (len(sl) == 2 and len(sr) == 2 and not shared)]


PER_ROUND = len(_signatures()) + len(LADDER)  # operations in a round


def _design(rounds: int) -> list:
    """The equations before renaming, from a fixed seed: per round, one
    draw per signature.  Each element is (kind, symbol, variable).  The
    time an equation takes depends on which of its symbols and variables
    coincide, so fixing this part makes every seed's stream cost the
    same; the seed then renames and reorders (see :func:`generate`)."""
    rng = random.Random(DESIGN_SEED)
    out = []
    for _ in range(rounds):
        for sl, sr, shared in _signatures():
            sides = [[(k, rng.choice(SYMBOLS[:2] if k == "tup" else SYMBOLS),
                       rng.choice(ELEMENT_VARS)) for k in kinds] for kinds in (sl, sr)]
            out.append((sides, shared))
    return out


def generate(cal, seed: int, workdir: Path, rounds: int = ROUNDS) -> list[Equation]:
    """Seeded equations: ROUNDS rounds of one equation per signature,
    each round closed by the ladder rungs.  The seed draws, per equation,
    the names of its symbols and variables, the order of the elements in
    each side and of the two operands, and the order of the equations
    within a round."""
    T = cal.terms
    rng = random.Random(seed)
    v, w = T.Var(("u", 100), "v", T.LOCAL), T.Var(("u", 101), "w", T.LOCAL)

    def renaming():
        syms = dict(zip(SYMBOLS, rng.sample(SYMBOL_POOL, len(SYMBOLS))))
        names = rng.sample(VAR_POOL, len(ELEMENT_VARS))
        evars = {d: T.Var(("u", VAR_POOL.index(n)), n, T.LOCAL)
                 for d, n in zip(ELEMENT_VARS, names)}
        return syms, evars

    def side(elements, uvar, syms, evars, used):
        terms, texts = [], []
        for kind, sym, var in rng.sample(elements, len(elements)):
            if kind == "sym":
                terms.append(T.Sym(syms[sym]))
                texts.append(syms[sym])
                continue
            used.add(var)
            if kind == "var":
                terms.append(evars[var])
                texts.append("$" + evars[var].name)
            else:
                terms.append(T.Tup((T.Sym(syms[sym]), evars[var])))
                texts.append(f"({syms[sym]}, ${evars[var].name})")
        text = "{" + ", ".join(texts) + "} \\/ $" + uvar.name
        return T.SetTerm(terms, [uvar]), text

    def equation(sides, shared):
        syms, evars = renaming()
        used: set = set()
        (lt, ltext) = side(sides[0], v, syms, evars, used)
        (rt, rtext) = side(sides[1], v if shared else w, syms, evars, used)
        if rng.random() < 0.5:
            (lt, ltext), (rt, rtext) = (rt, rtext), (lt, ltext)
        ev = [evars[d] for d in ELEMENT_VARS if d in used]
        return Equation(lt, rt, ev, [v] if shared else [v, w], f"{ltext} ~ {rtext}",
                        [syms[d] for d in SYMBOLS])

    def ladder(k):
        syms, evars = renaming()
        xs = [T.Var(("u", 200 + i), f"x{i + 1}", T.LOCAL) for i in range(k)]
        consts = [syms[d] for d in SYMBOLS[:k]]
        lt = T.SetTerm(xs, [v])
        rt = T.SetTerm([T.Sym(c) for c in consts], [w])
        ltext = "{" + ", ".join("$" + x.name for x in xs) + "} \\/ $v"
        rtext = "{" + ", ".join(consts) + "} \\/ $w"
        return Equation(lt, rt, xs, [v, w], f"{ltext} ~ {rtext}", [syms[d] for d in SYMBOLS])

    design = _design(rounds)
    per_round = len(design) // rounds
    ops: list[Equation] = []
    for r in range(rounds):
        round_ops = [equation(sides, shared)
                     for sides, shared in design[r * per_round:(r + 1) * per_round]]
        rng.shuffle(round_ops)
        ops.extend(round_ops)
        ops.extend(ladder(k) for k in LADDER)
    # The warm-up operation is the first one: open the stream with an
    # equation without element variables, so set-up costs the same for
    # every seed.
    first = next(i for i, e in enumerate(ops) if e.text.count("$") == 2)
    ops.insert(0, ops.pop(first))
    return ops


def describe(op) -> str:
    return op.text


def run(cal, op):
    return cal.unify_sets(op.left, op.right), cal.unify_sets(op.right, op.left)


# ---------------------------------------------------------------------------
# Independent reference: own substitution, ground enumeration, own matcher
# ---------------------------------------------------------------------------

def norm(t, binding: dict):
    """Hashable normal form of a term under a store's bindings; sets
    become (elements, union variables) frozensets with bound union
    variables merged in."""
    kind = type(t).__name__
    if kind == "Var":
        b = binding.get(t)
        return norm(b, binding) if b is not None else ("v", t.vid)
    if kind == "Sym":
        return ("s", t.name)
    if kind == "Num":
        return ("n", t.value)
    if kind == "Tup":
        return ("t", tuple(norm(m, binding) for m in t.members))
    if kind == "SetTerm":
        elems = {norm(e, binding) for e in t.elements}
        uvars = set()
        for u in t.union_vars:
            b = binding.get(u)
            nb = norm(b, binding) if b is not None else ("v", u.vid)
            if nb[0] == "S":
                elems |= nb[1]
                uvars |= nb[2]
            elif nb[0] == "v":
                uvars.add(nb)
            else:
                uvars.add(("bad", nb))  # union variable bound to an individual
        return ("S", frozenset(elems), frozenset(uvars))
    raise TypeError(f"not a term: {t!r}")


def text_of(n) -> str:
    """Deterministic text of a normal form, for the traced-run identity
    check and for problem messages."""
    tag = n[0]
    if tag == "v":
        return "$" + "_".join(map(str, n[1]))
    if tag in ("s", "n"):
        return str(n[1])
    if tag == "t":
        return "(" + ", ".join(text_of(m) for m in n[1]) + ")"
    if tag == "S":
        parts = ["{" + ", ".join(sorted(text_of(e) for e in n[1])) + "}"]
        parts += sorted(text_of(u) for u in n[2])
        return " \\/ ".join(parts)
    return "?" + repr(n)


def solution_vectors(op, stores) -> list[tuple]:
    out = []
    for s in stores:
        binding = dict(s.items())
        out.append(tuple(norm(x, binding) for x in op.elem_vars + op.union_vars))
    return out


def render(op, out) -> bytes:
    lines = []
    for label, stores in zip(("lr", "rl"), out):
        for vec in solution_vectors(op, stores):
            lines.append(label + " " + "; ".join(text_of(n) for n in vec))
    return "\n".join(lines).encode()


def _ground_side(side_norm, env):
    """Ground value of a normalised side under ``env``: the set of its
    elements plus the union of its union variables' sets."""
    _, elems, uvars = side_norm
    out = set()
    for e in elems:
        out.add(_ground_individual(e, env))
    for u in uvars:
        out |= env[u]
    return frozenset(out)


def _ground_individual(n, env):
    if n[0] == "v":
        return env[n]
    if n[0] == "t":
        return ("t", tuple(_ground_individual(m, env) for m in n[1]))
    return n


def ground_unifiers(op) -> list[tuple]:
    """Every assignment over the ground universe under which both sides
    denote the same set, as a vector in the op's variable order: element
    variables range over the op's ground individuals, union variables
    over all their subsets."""
    ln, rn = norm(op.left, {}), norm(op.right, {})
    ekeys = [("v", x.vid) for x in op.elem_vars]
    ukeys = [("v", u.vid) for u in op.union_vars]
    ground_sets = list(_subsets(op.ground))
    out = []
    for evals in itertools.product(op.ground, repeat=len(ekeys)):
        env = dict(zip(ekeys, evals))
        for uvals in itertools.product(ground_sets, repeat=len(ukeys)):
            env.update(zip(ukeys, uvals))
            if _ground_side(ln, env) == _ground_side(rn, env):
                out.append(tuple(evals) + tuple(("S", s, frozenset()) for s in uvals))
    return out


def _subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        for c in itertools.combinations(items, k):
            yield frozenset(c)


def match(p, g, sub: dict):
    """Substitutions for the pattern's variables under which the normal
    form ``p`` equals the ground normal form ``g``.  Variables are bound
    to ground individuals, or to ground sets when used as union
    variables."""
    tag = p[0]
    if tag == "v":
        if p in sub:
            if sub[p] == g:
                yield sub
        else:
            yield {**sub, p: g}
        return
    if tag in ("s", "n"):
        if p == g:
            yield sub
        return
    if tag == "t":
        if g[0] != "t" or len(g[1]) != len(p[1]):
            return
        yield from _match_seq(list(p[1]), list(g[1]), sub)
        return
    if tag == "S":
        if g[0] != "S":
            return
        yield from _match_set(list(p[1]), list(p[2]), g[1], sub)


def _match_seq(ps, gs, sub):
    if not ps:
        yield sub
        return
    for s2 in match(ps[0], gs[0], sub):
        yield from _match_seq(ps[1:], gs[1:], s2)


def _match_set(elems, uvars, target: frozenset, sub):
    if any(u[0] != "v" for u in uvars):
        return

    def place(i, s, used):
        if i == len(elems):
            yield s, used
            return
        for g in target:
            for s2 in match(elems[i], g, s):
                yield from place(i + 1, s2, used | {g})

    for s, used in place(0, sub, frozenset()):
        covered = set(used)
        free = []
        ok = True
        for u in uvars:
            if u in s:
                val = s[u][1] if s[u][0] == "S" else None
                if val is None or not val <= target:
                    ok = False
                    break
                covered |= val
            elif u not in free:
                free.append(u)
        if not ok:
            continue
        rest = target - covered
        if not free:
            if not rest:
                yield s
            continue
        for vals in itertools.product(list(_subsets(target)), repeat=len(free)):
            if rest <= frozenset().union(*vals):
                yield {**s, **{u: ("S", val, frozenset()) for u, val in zip(free, vals)}}


def covered(ground_vec, patterns) -> bool:
    return any(next(_match_seq(list(p), list(ground_vec), {}), None) is not None
               for p in patterns)


def check(op, out) -> tuple[list[str], bool]:
    """Soundness of every solution, completeness against ground
    enumeration in both operand orders, and whether the two orders give
    the same number of solutions (the returned flag)."""
    problems = []
    lr, rl = out
    for label, stores in (("lr", lr), ("rl", rl)):
        for s in stores:
            binding = dict(s.items())
            if norm(op.left, binding) != norm(op.right, binding):
                problems.append(f"{op.text}: unsound {label} solution")
                break
    ground = ground_unifiers(op)
    for label, stores in (("lr", lr), ("rl", rl)):
        patterns = solution_vectors(op, stores)
        for vec in ground:
            if not covered(vec, patterns):
                problems.append(f"{op.text}: {label} misses ground unifier "
                                f"{'; '.join(text_of(n) for n in vec)}")
                break
    return problems, len(lr) != len(rl)


def corruptions(cal, op, out) -> list:
    """Outputs the checker must reject: no solutions at all (incomplete),
    one solution with a stray member in a union variable (unsound) and
    one solution fewer in one operand order.  Only offered for an op
    with a ground unifier and two union variables."""
    lr, rl = out
    if not lr or not ground_unifiers(op) or len(op.union_vars) < 2:
        return []
    bad = dict(lr[0].items())
    v = op.union_vars[0]
    old = bad.get(v)
    if old is None or type(old).__name__ != "SetTerm":
        return []
    T = cal.terms
    bad[v] = T.SetTerm(list(old.elements) + [T.Sym("corrupt")], old.union_vars)
    unsound = [cal.BindingStore(bad)] + list(lr[1:])
    return [([], []), (unsound, unsound), (lr, lr[:-1])]
