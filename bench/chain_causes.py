"""chain-causes: every causality command on chain-n instances.

A chain-n instance holds n distinct facts over n/2 constants, each S(a_i) or
R(a_i,a_j) with probability 1/2 (ROADMAP's generator). The three instances
are fixed: whydb's search cost on instances with equal S-repair counts, and
even on one instance with its facts reordered, differs by up to 5x, so
instances drawn per seed would make seeds disagree far beyond any bound.
The seed renames the constants, with names of one width, so every seed runs
the same search on different inputs.

The instances and their fact orders follow a stated rule rather than a
hand pick: generator seed 1 for every n, and of ORDERS seeded shuffles of
the facts, the one whose search-node count (`search_nodes`) is the median.
`python3 bench/chain_causes.py` prints every shuffle's count and the choice.
"""

from __future__ import annotations

import random
from pathlib import Path

import outputs
from common import (
    CHAIN_QUERY,
    Fact,
    Op,
    WitnessExpectation,
    expect,
    text_and_json,
    text_only,
    write_facts,
)
from hypergraph import minimal_sets, minimal_transversals

NAME = "chain-causes"
# chain-n from generator seed 1: 165, 486 and 1150 S-repairs. chain-40 is
# ROADMAP's reference instance.
SIZES = (30, 40, 42)
ORDERS = 9


def chain_facts(n: int, rng: random.Random) -> list:
    facts: list = []
    seen = set()
    domain = n // 2
    while len(facts) < n:
        if rng.random() < 0.5:
            fact = ("S", (f"a{rng.randrange(domain)}",))
        else:
            fact = ("R", (f"a{rng.randrange(domain)}", f"a{rng.randrange(domain)}"))
        if fact not in seen:
            seen.add(fact)
            facts.append(fact)
    return facts


def chain_witnesses(facts: list[Fact]) -> list[frozenset[int]]:
    """Tid sets of every image of S(x), R(x,y), S(y), by a dict join."""
    s_tid = {args[0]: i for i, (pred, args) in enumerate(facts, start=1) if pred == "S"}
    out = set()
    for tid, (pred, args) in enumerate(facts, start=1):
        if pred == "R" and args[0] in s_tid and args[1] in s_tid:
            out.add(frozenset((s_tid[args[0]], tid, s_tid[args[1]])))
    return sorted(out, key=sorted)


def search_nodes(witnesses) -> int:
    """Nodes of the branch-on-the-first-uncovered-edge search for minimal
    hitting sets, with edges and elements taken in tid order and elements
    tried at a node banned below its later siblings. Its cost, and whydb's
    today, depends on the tid order; this count only ranks fact orders."""
    order = sorted(set(witnesses), key=sorted)
    count = 0

    def search(chosen: frozenset, banned: frozenset) -> None:
        nonlocal count
        count += 1
        edge = next((e for e in order if not e & chosen), None)
        if edge is None:
            return
        for t in sorted(edge - banned):
            search(chosen | {t}, banned)
            banned = banned | {t}

    search(frozenset(), frozenset())
    return count


def shuffles(n: int) -> list[tuple[int, list]]:
    """The ORDERS seeded fact orders of chain-n, each with its node count."""
    out = []
    for k in range(ORDERS):
        facts = chain_facts(n, random.Random(1))
        random.Random(f"{NAME}/order/{n}/{k}").shuffle(facts)
        out.append((search_nodes(chain_witnesses(facts)), facts))
    return out


def instance(n: int) -> list:
    """chain-n in the fact order of median search cost."""
    return sorted(shuffles(n), key=lambda pair: pair[0])[ORDERS // 2][1]


def _renamed(facts: list, rng: random.Random) -> list:
    constants = sorted({a for _, args in facts for a in args})
    names = dict(zip(constants, (f"c{v:06d}" for v in rng.sample(range(10**6), len(constants)))))
    return [(pred, tuple(names[a] for a in args)) for pred, args in facts]


def build(seed: int, workdir: Path):
    """Write the inputs; return the operations and one make-up row per input."""
    ops: list[Op] = []
    makeup = []
    rng = random.Random(f"{NAME}/{seed}")
    for index, n in enumerate(SIZES):
        facts = _renamed(instance(n), rng)
        witnesses = minimal_sets(chain_witnesses(facts))
        transversals = minimal_transversals(witnesses, 10**5)
        exp = WitnessExpectation(witnesses, transversals)
        label = f"c{index + 1}"
        db = workdir / f"{label}.facts"
        write_facts(db, facts)
        # Probe the cause with the median number of contingency sets, and the
        # first tuple that is no cause.
        by_sets = sorted(exp.causes, key=lambda t: (len(exp.sets[t]), t))
        cause = by_sets[len(by_sets) // 2]
        non_cause = min(t for t in range(1, n + 1) if t not in exp.rho)
        base = ["--db", str(db), "-q", CHAIN_QUERY]
        ops += text_and_json(f"{label}.causes", ["causes"] + base, facts, outputs.causes,
                             exp.check_causes)
        ops += text_and_json(
            f"{label}.contingency", ["contingency"] + base + ["--tid", str(cause)], facts,
            outputs.contingency, lambda v, t=cause, e=exp: e.check_sets(t, v))
        for kind, t in (("cause", cause), ("non-cause", non_cause)):
            ops += text_and_json(
                f"{label}.responsibility-{kind}", ["responsibility"] + base + ["--tid", str(t)], facts,
                outputs.responsibility, lambda v, t=t, e=exp: e.check_responsibility(t, v))
        ops += text_and_json(
            f"{label}.most-responsible", ["most-responsible"] + base, facts,
            lambda out, fmt, a: outputs.fact_list(out, fmt, a, "most_responsible_causes"),
            exp.check_most_responsible)
        ops += text_and_json(
            f"{label}.counterfactual", ["counterfactual"] + base, facts,
            lambda out, fmt, a: outputs.fact_list(out, fmt, a, "counterfactual_causes"),
            exp.check_counterfactual)
        ops.append(text_only(
            f"{label}.emit-asp", ["emit-asp"] + base, facts,
            lambda out, fmt, a: outputs.asp_fact_tids(out, fmt),
            lambda v, n=n: expect(v == list(range(1, n + 1)), "one fact line per tuple")))
        makeup.append({
            "input": label, "facts": n, "witnesses": len(witnesses),
            "causes": len(exp.causes), "s_repairs": len(transversals),
            "cause_tid": cause, "non_cause_tid": non_cause,
        })
    return ops, makeup


if __name__ == "__main__":
    for n in SIZES:
        counts = [count for count, _ in shuffles(n)]
        print(f"chain-{n}: search nodes per shuffle {counts}, "
              f"median {sorted(counts)[ORDERS // 2]}")
