"""sparse-join: large S/R instances with a few planted witnesses.

Background facts never complete S(x), R(x,y), S(y): S holds constants s_i,
and every R fact ends in a constant d_j that S never holds. A fifth of the
facts are S facts, and 30% of the R facts start in an S constant, so whydb's
join reaches its third atom for those and fails there. A few components are
planted on constants of their own, so the witnesses, causes,
responsibilities and answers follow from their shapes.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import outputs
from common import CHAIN_QUERY, Op, expect, text_and_json, text_only, write_facts
from hypergraph import is_minimal_contingency, mask

NAME = "sparse-join"
SIZES = (1000, 1600)
PLANTED = ("path", "loop", "fan", "fan")
JOIN_QUERY = "q(x,y) :- S(x), R(x,y), S(y)."

# Each shape: its facts over local constants a, b, c; its witnesses as
# indexes into those facts; per fact, the smallest number of other deletions
# inside the component that make it counterfactual (k_in), and the number of
# the component's minimal hitting sets holding it. Every shape is hit by one
# deletion, so a component adds 1 to every other component's contingency.
SHAPES = {
    "path": ([("S", "a"), ("R", "a", "b"), ("S", "b")], [{0, 1, 2}], [0, 0, 0], [1, 1, 1], 3),
    "loop": ([("S", "a"), ("R", "a", "a")], [{0, 1}], [0, 0], [1, 1], 2),
    "fan": ([("S", "a"), ("R", "a", "b"), ("S", "b"), ("R", "a", "c"), ("S", "c")],
            [{0, 1, 2}, {0, 3, 4}], [0, 1, 1, 1, 1], [1, 2, 2, 2, 2], 5),
}


def _instance(size: int, rng: random.Random):
    """Facts in file order, and the planted components as
    (shape, [fact index of each local fact])."""
    planted = []
    for j, shape in enumerate(PLANTED):
        local = {"a": f"p{j}a", "b": f"p{j}b", "c": f"p{j}c"}
        planted.append((shape, [(f[0], tuple(local[c] for c in f[1:])) for f in SHAPES[shape][0]]))
    background = size - sum(len(fs) for _, fs in planted)
    s_count = background // 5
    r_count = background - s_count
    s_consts = [f"s{i}" for i in range(s_count)]
    d_consts = [f"d{i}" for i in range(r_count // 2)]
    facts = [("S", (c,)) for c in s_consts]
    seen = set()
    from_s = round(0.3 * r_count)
    while len(seen) < r_count:
        x = rng.choice(s_consts if len(seen) < from_s else d_consts)
        fact = ("R", (x, rng.choice(d_consts)))
        if fact not in seen:
            seen.add(fact)
            facts.append(fact)
    facts += [f for _, fs in planted for f in fs]
    rng.shuffle(facts)
    tid = {f: i for i, f in enumerate(facts, start=1)}
    return facts, [(shape, [tid[f] for f in fs]) for shape, fs in planted]


class _Expected:
    """Everything the commands report, from the planted shapes."""

    def __init__(self, components):
        self.witnesses = []
        self.rho = {}
        self.set_count = {}
        options = [SHAPES[shape][4] for shape, _ in components]
        for j, (shape, tids) in enumerate(components):
            _, local, k_in, holding, _ = SHAPES[shape]
            self.witnesses += [frozenset(tids[i] for i in w) for w in local]
            others = prod(options[:j] + options[j + 1:])
            for i, t in enumerate(tids):
                self.rho[t] = Fraction(1, 1 + k_in[i] + len(components) - 1)
                self.set_count[t] = holding[i] * others
        self.masks = [mask(w) for w in self.witnesses]
        self.best = max(self.rho.values())
        self.s_repairs = prod(options)

    def check_causes(self, value) -> None:
        expect([c[0] for c in value] == sorted(self.rho, key=lambda t: (-self.rho[t], t)),
               "causes or their order differ")
        for t, rho, cf, mr, sets in value:
            expect(rho == self.rho[t], f"tid {t}: responsibility {rho}, expected {self.rho[t]}")
            expect(not cf, f"tid {t}: counterfactual, but no tuple is in every witness")
            expect(mr == (rho == self.best), f"tid {t}: most-responsible flag")
            expect(len(set(sets)) == len(sets) == self.set_count[t],
                   f"tid {t}: {len(sets)} contingency sets, expected {self.set_count[t]}")
            for gamma in sets:
                expect(is_minimal_contingency(self.masks, t, mask(gamma)),
                       f"tid {t}: {sorted(gamma)} is no minimal contingency set")

    def check_responsibility(self, t: int, value) -> None:
        expect(value == (t, self.rho[t]), f"tid {t}: responsibility {value[1]}")

    def check_most_responsible(self, value) -> None:
        expect(value == sorted(t for t, r in self.rho.items() if r == self.best),
               "most responsible causes differ")


def build(seed: int, workdir: Path):
    """Write the inputs; return the operations and one make-up row per input."""
    ops: list[Op] = []
    makeup = []
    for index, size in enumerate(SIZES):
        rng = random.Random(f"{NAME}/{seed}/{index}")
        facts, components = _instance(size, rng)
        exp = _Expected(components)
        label = f"j{index + 1}"
        db = workdir / f"{label}.facts"
        write_facts(db, facts)
        base = ["--db", str(db)]
        chain = base + ["-q", CHAIN_QUERY]
        probe = rng.choice(sorted(exp.rho))
        pairs = sorted({(facts[t - 1][1][0], facts[t - 1][1][1])
                        for w in exp.witnesses for t in w if facts[t - 1][0] == "R"})
        starts = Counter(f[1][0] for f in facts if f[0] == "R" and f[1][0].startswith("s"))
        key = rng.choice(sorted(k for k, count in starts.items() if count == 2))
        lookup = sorted((f[1][1],) for f in facts if f[0] == "R" and f[1][0] == key)
        ops.append(text_only(f"{label}.causes", ["causes"] + chain, facts, outputs.causes,
                             exp.check_causes))
        ops.append(text_only(
            f"{label}.responsibility", ["responsibility"] + chain + ["--tid", str(probe)], facts,
            outputs.responsibility, lambda v, t=probe, e=exp: e.check_responsibility(t, v)))
        ops.append(text_only(
            f"{label}.most-responsible", ["most-responsible"] + chain, facts,
            lambda out, fmt, a: outputs.fact_list(out, fmt, a, "most_responsible_causes"),
            exp.check_most_responsible))
        ops.append(text_only(
            f"{label}.query-join", ["query"] + base + ["-q", JOIN_QUERY], facts,
            lambda out, fmt, a: outputs.query_answers(out, fmt),
            lambda v, want=pairs: expect(v == want, "join answers differ")))
        ops += text_and_json(
            f"{label}.query-lookup", ["query"] + base + ["-q", f'q(y) :- R("{key}", y).'], facts,
            lambda out, fmt, a: outputs.query_answers(out, fmt),
            lambda v, want=lookup: expect(v == want, "lookup answers differ"))
        ops.append(text_only(
            f"{label}.emit-asp", ["emit-asp"] + chain, facts,
            lambda out, fmt, a: outputs.asp_fact_tids(out, fmt),
            lambda v, n=len(facts): expect(v == list(range(1, n + 1)), "one fact line per tuple")))
        makeup.append({
            "input": label, "facts": len(facts), "witnesses": len(exp.witnesses),
            "shapes": "+".join(shape for shape, _ in components),
            "causes": len(exp.rho), "s_repairs": exp.s_repairs, "lookup_answers": len(lookup),
        })
    return ops, makeup
