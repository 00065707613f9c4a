"""Exhaustive reference implementations, used as ground truth in tests.

Everything here works from the definitions by enumerating subsets of the
endogenous tuples, and evaluates queries with its own generate-and-test
matcher rather than the main backtracking evaluator, so bugs cannot be
shared with the repair/causality path. Exponential on purpose; guarded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .causality import CauseReport
from .core import Fact, Instance
from .errors import ArityMismatchError, OpenQueryError, OracleGuardError
from .query import CQ, DC, ConstraintSet, UCQ, Var
from .repair import HardConstraint, ReferentialConstraint

GUARD = 18


@dataclass(frozen=True)
class OracleRepair:
    retained: frozenset[int]
    deleted: frozenset[int]
    c_repair: bool


def _guarded_endo(inst: Instance, guard: int) -> list[int]:
    limit = min(guard, GUARD)
    endo = sorted(inst.endogenous_tids)
    if len(endo) > limit:
        raise OracleGuardError(
            f"{len(endo)} endogenous tuples exceed the oracle guard of {limit}"
        )
    return endo


def _cq_holds(facts: Sequence[Fact], cq: CQ) -> bool:
    """Generate-and-test: try every combination of candidate facts."""
    candidates = []
    for atom in cq.atoms:
        matching = []
        for fact in facts:
            if fact.predicate != atom.predicate:
                continue
            if len(fact.args) != len(atom.terms):
                raise ArityMismatchError(
                    f"atom {atom.render()} has arity {len(atom.terms)}, "
                    f"facts use {len(fact.args)}"
                )
            matching.append(fact)
        if not matching:
            return False
        candidates.append(matching)
    for combo in itertools.product(*candidates):
        substitution: dict[str, str] = {}
        ok = True
        for atom, fact in zip(cq.atoms, combo):
            for term, value in zip(atom.terms, fact.args):
                if isinstance(term, Var):
                    if substitution.setdefault(term.name, value) != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for left, right in cq.inequalities:
            lv = substitution[left.name] if isinstance(left, Var) else left
            rv = substitution[right.name] if isinstance(right, Var) else right
            if lv == rv:
                ok = False
                break
        if ok:
            return True
    return False


def _query_true(facts: Sequence[Fact], q: UCQ) -> bool:
    return any(_cq_holds(facts, cq) for cq in q.disjuncts)


def _consistent(facts: Sequence[Fact], cs: ConstraintSet) -> bool:
    return not any(_cq_holds(facts, dc.body) for dc in cs.dcs)


def _hard_ok(facts: Sequence[Fact], constraint: HardConstraint) -> bool:
    if isinstance(constraint, ReferentialConstraint):

        def keys(name: str, positions: tuple[int, ...]) -> set[tuple[str, ...]]:
            out = set()
            for f in facts:
                if f.predicate == name:
                    if max(positions) > len(f.args):
                        raise ArityMismatchError(
                            f"position {max(positions)} out of range for "
                            f"{name}/{len(f.args)}"
                        )
                    out.add(tuple(f.args[p - 1] for p in positions))
            return out

        return keys(constraint.source, constraint.source_positions) <= keys(
            constraint.target, constraint.target_positions
        )
    return not _cq_holds(facts, constraint.body)


def brute_repairs(
    inst: Instance,
    cs: ConstraintSet,
    hard: Sequence[HardConstraint] = (),
    guard: int = GUARD,
) -> list[OracleRepair]:
    """Every S-repair by scanning all subsets of the endogenous tuples,
    flagging the maximum-cardinality ones; hard constraints filter last."""
    endo = _guarded_endo(inst, guard)
    exo_facts = [f for f in inst.facts if f.exogenous]
    exo_tids = frozenset(f.tid for f in exo_facts)
    consistent_memo: dict[frozenset[int], bool] = {}

    def consistent(subset: frozenset[int]) -> bool:
        cached = consistent_memo.get(subset)
        if cached is None:
            facts = exo_facts + [inst.fact(t) for t in sorted(subset)]
            cached = _consistent(facts, cs)
            consistent_memo[subset] = cached
        return cached

    repairs: list[tuple[frozenset[int], frozenset[int]]] = []
    for mask in range(2 ** len(endo)):
        subset = frozenset(t for i, t in enumerate(endo) if mask >> i & 1)
        if not consistent(subset):
            continue
        if any(consistent(subset | {t}) for t in endo if t not in subset):
            continue
        retained = subset | exo_tids
        facts = [f for f in inst.facts if f.tid in retained]
        if all(_hard_ok(facts, h) for h in hard):
            repairs.append((retained, inst.tids - retained))
    if not repairs:
        return []
    fewest = min(len(deleted) for _, deleted in repairs)
    out = [
        OracleRepair(retained, deleted, len(deleted) == fewest)
        for retained, deleted in repairs
    ]
    out.sort(key=lambda r: (len(r.deleted), tuple(sorted(r.deleted))))
    return out


def brute_causes(inst: Instance, q: UCQ, guard: int = GUARD) -> list[CauseReport]:
    """Scan, for each endogenous tuple, every candidate contingency set and
    keep the subset-minimal ones; responsibility is 1/(1 + min size)."""
    if q.free_vars:
        raise OpenQueryError("brute_causes requires a boolean query")
    endo = _guarded_endo(inst, guard)
    exo_facts = [f for f in inst.facts if f.exogenous]
    full = frozenset(endo)
    true_memo: dict[frozenset[int], bool] = {}

    def query_true(subset: frozenset[int]) -> bool:
        cached = true_memo.get(subset)
        if cached is None:
            facts = exo_facts + [inst.fact(t) for t in sorted(subset)]
            cached = _query_true(facts, q)
            true_memo[subset] = cached
        return cached

    if not query_true(full):
        return []

    found: list[tuple[int, list[frozenset[int]]]] = []
    for t in endo:
        others = [u for u in endo if u != t]
        witnesses: list[frozenset[int]] = []
        for mask in range(2 ** len(others)):
            gamma = frozenset(u for i, u in enumerate(others) if mask >> i & 1)
            if query_true(full - gamma) and not query_true(full - gamma - {t}):
                witnesses.append(gamma)
        minimal = [
            g for g in witnesses if not any(h < g for h in witnesses)
        ]
        if minimal:
            minimal.sort(key=lambda g: (len(g), tuple(sorted(g))))
            found.append((t, minimal))
    if not found:
        return []
    responsibilities = {
        t: Fraction(1, 1 + min(len(g) for g in sets)) for t, sets in found
    }
    top = max(responsibilities.values())
    reports = [
        CauseReport(
            tid=t,
            responsibility=responsibilities[t],
            minimal_contingency_sets=tuple(sets),
            is_counterfactual=frozenset() in sets,
            is_most_responsible=responsibilities[t] == top,
        )
        for t, sets in found
    ]
    reports.sort(key=lambda r: (-r.responsibility, r.tid))
    return reports


def brute_responsibility(
    inst: Instance, q: UCQ, t: int, guard: int = GUARD
) -> Fraction:
    """The responsibility of one tuple, from the same exhaustive scan."""
    fact = inst.fact(t)
    if fact.exogenous:
        return Fraction(0)
    for report in brute_causes(inst, q, guard):
        if report.tid == t:
            return report.responsibility
    return Fraction(0)


def brute_causes_from_repairs(
    inst: Instance,
    q: UCQ,
    hard: Sequence[HardConstraint] = (),
    guard: int = GUARD,
) -> list[CauseReport]:
    """Causes via the repair route: deletion differences of the brute-force
    S-repairs of the negated query, optionally filtered by hard constraints.

    Independent of brute_causes, which scans candidate contingency sets
    directly; the two routes agreeing is itself a meaningful check.
    """
    if q.free_vars:
        raise OpenQueryError("brute_causes_from_repairs requires a boolean query")
    cs = ConstraintSet(tuple(DC(cq) for cq in q.disjuncts))
    reps = brute_repairs(inst, cs, hard, guard)
    diffs = [r.deleted for r in reps if r.deleted]
    if not diffs:
        return []
    c_diffs = [r.deleted for r in reps if r.c_repair and r.deleted]
    reports = []
    for t in sorted(inst.endogenous_tids):
        mine = [d for d in diffs if t in d]
        if not mine:
            continue
        gammas = sorted(
            {d - {t} for d in mine}, key=lambda g: (len(g), tuple(sorted(g)))
        )
        reports.append(
            CauseReport(
                tid=t,
                responsibility=Fraction(1, min(len(d) for d in mine)),
                minimal_contingency_sets=tuple(gammas),
                is_counterfactual=frozenset({t}) in mine,
                is_most_responsible=any(t in d for d in c_diffs),
            )
        )
    reports.sort(key=lambda r: (-r.responsibility, r.tid))
    return reports
