"""fd-repairs: S- and C-repairs of one relation under two FDs.

T(k, a, b, c) with `fd T: 1 -> 2` and `fd T: 1 -> 3`. Each conflicting key
gets one of the shapes below; every other key is clean. The groups are
independent, so the S-repair count is the product of the per-group option
counts and the C-repair count the product of the per-group counts of
smallest options. The shapes cycle through SHAPES, so every seed has the
same counts; the seed draws the values, which key gets which shape, and
where each group sits in the file.
"""

from __future__ import annotations

import random
from math import prod
from pathlib import Path

import outputs
from common import Op, WitnessExpectation, expect, text_and_json, text_only, write_facts
from hypergraph import minimal_transversals

NAME = "fd-repairs"
CONFLICTS = (4, 7, 11)
CLEAN_PER_CONFLICT = 16
CONSTRAINTS = "fd T: 1 -> 2.\nfd T: 1 -> 3.\n"
DIALECTS = ("core-disjunctive", "core-normalized", "extended")

# Each shape: its tuples as (a, b, c) value indexes under one key; its
# option count (minimal deletion sets) and how many of those are smallest.
# In a star, one tuple conflicts with two tuples that agree with each other,
# so deleting the one beats deleting the two: C-repairs < S-repairs.
SHAPES = {
    "pair-a": ([(0, 0, 0), (1, 0, 1)], 2, 2),
    "pair-ab": ([(0, 0, 0), (1, 1, 0)], 2, 2),
    "star-a": ([(1, 0, 0), (0, 0, 1), (0, 0, 2)], 2, 1),
    "star-b": ([(0, 1, 0), (0, 0, 1), (0, 0, 2)], 2, 1),
}


def _instance(conflicts: int, rng: random.Random):
    """Facts in file order and the conflict groups as (shape, key)."""
    shapes = [sorted(SHAPES)[i % len(SHAPES)] for i in range(conflicts)]
    rng.shuffle(shapes)
    groups = [(shape, f"k{i}") for i, shape in enumerate(shapes)]
    # A group's tuples stay together and in shape order: whydb's search visits
    # a different number of non-minimal selections when a star's tuples come
    # in another order, and the seed should not change the work.
    blocks = []
    for shape, key in groups:
        base = [rng.randrange(50) for _ in range(3)]
        blocks.append([("T", (key,) + tuple(f"v{b + d:02d}" for b, d in zip(base, delta)))
                       for delta in SHAPES[shape][0]])
    blocks += [[("T", (f"k{i}",) + tuple(f"v{rng.randrange(50):02d}" for _ in range(3)))]
               for i in range(conflicts, conflicts * (1 + CLEAN_PER_CONFLICT))]
    rng.shuffle(blocks)
    return [fact for block in blocks for fact in block], groups


def _determined(rows) -> dict[str, tuple[str, str]] | None:
    """k -> (a, b) for (k, a, b, c) rows, or None if the rows break an FD."""
    seen: dict[str, tuple[str, str]] = {}
    for k, a, b, _ in rows:
        if seen.setdefault(k, (a, b)) != (a, b):
            return None
    return seen


class _Expected:
    def __init__(self, facts, groups, kind: str):
        self.facts = facts
        self.kind = kind
        self.all = frozenset(range(1, len(facts) + 1))
        conflicting = {key for _, key in groups}
        self.clean = frozenset(t for t in self.all if facts[t - 1][1][0] not in conflicting)
        pick = 1 if kind == "s" else 2
        self.count = prod(SHAPES[shape][pick] for shape, _ in groups)
        self.smallest = len(groups)

    def check(self, value) -> None:
        expect(len(value) == self.count, f"{len(value)} {self.kind}-repairs, expected {self.count}")
        expect(len(set(value)) == len(value), "a repair is listed twice")
        for deleted, retained in value:
            expect(not deleted & retained and deleted | retained == self.all,
                   "deleted and retained do not split the instance")
            expect(self.clean <= retained, "a clean tuple was deleted")
            kept = _determined(self.facts[t - 1][1] for t in retained)
            expect(kept is not None, "a repair violates an FD")
            for t in deleted:
                k, a, b, _ = self.facts[t - 1][1]
                expect(kept.get(k, (a, b)) != (a, b), "a repair is not maximal")
            if self.kind == "c":
                expect(len(deleted) == self.smallest, "a C-repair deletes too many tuples")


def _clashes_on_a(shape: str) -> bool:
    rows = SHAPES[shape][0]
    return len({r[0] for r in rows}) > 1


def _pinned(facts, groups, rng: random.Random):
    """A boolean query true on one conflict group alone, and its witnesses."""
    shape, key = rng.choice(groups)
    pos, var = (1, "a") if _clashes_on_a(shape) else (2, "b")
    query = f'q :- T("{key}", a, b, c), T("{key}", a2, b2, c2), {var} != {var}2.'
    rows = [(t, f[1]) for t, f in enumerate(facts, start=1) if f[1][0] == key]
    witnesses = sorted({frozenset((t, u)) for t, r in rows for u, s in rows if r[pos] != s[pos]},
                       key=sorted)
    return query, witnesses


def build(seed: int, workdir: Path):
    """Write the inputs; return the operations and one make-up row per input."""
    constraints = workdir / "fd.dc"
    constraints.write_text(CONSTRAINTS, encoding="utf-8")
    ops: list[Op] = []
    makeup = []
    for index, conflicts in enumerate(CONFLICTS):
        rng = random.Random(f"{NAME}/{seed}/{index}")
        facts, groups = _instance(conflicts, rng)
        label = f"f{index + 1}"
        db = workdir / f"{label}.facts"
        write_facts(db, facts)
        base = ["--db", str(db)]
        for kind in ("s", "c"):
            ops += text_and_json(
                f"{label}.repairs-{kind}",
                ["repairs"] + base + ["--constraints", str(constraints), "--kind", kind], facts,
                lambda out, fmt, a, kind=kind: outputs.repairs(out, fmt, a, kind),
                _Expected(facts, groups, kind).check)
        for dialect in DIALECTS:
            ops.append(text_only(
                f"{label}.emit-asp-{dialect}",
                ["emit-asp"] + base + ["--constraints", str(constraints), "--dialect", dialect],
                facts, lambda out, fmt, a: outputs.asp_fact_tids(out, fmt),
                lambda v, n=len(facts): expect(v == list(range(1, n + 1)), "one fact line per tuple")))
        query, witnesses = _pinned(facts, groups, rng)
        ops.append(text_only(
            f"{label}.causes-pinned", ["causes"] + base + ["-q", query], facts, outputs.causes,
            WitnessExpectation(witnesses, minimal_transversals(witnesses, 64)).check_causes))
        clashing = sorted((key,) for shape, key in groups if _clashes_on_a(shape))
        ops.append(text_only(
            f"{label}.query-clashes",
            ["query"] + base + ["-q", "q(k) :- T(k, a, b, c), T(k, a2, b2, c2), a != a2."], facts,
            lambda out, fmt, a: outputs.query_answers(out, fmt),
            lambda v, want=clashing: expect(v == want, "clashing keys differ")))
        makeup.append({
            "input": label, "facts": len(facts), "conflicts": conflicts,
            "shapes": " ".join(f"{s}x{sum(1 for g, _ in groups if g == s)}" for s in sorted(SHAPES)),
            "s_repairs": prod(SHAPES[s][1] for s, _ in groups),
            "c_repairs": prod(SHAPES[s][2] for s, _ in groups),
        })
    return ops, makeup
