"""Actual causes, contingency sets and responsibilities, from repairs.

A tuple is an actual cause for a true boolean query exactly when it appears
in the deletion difference of some S-repair with respect to the negated
query; each such difference minus the tuple itself is a subset-minimal
contingency set, and the responsibility is one over the size of a smallest
difference. Most responsible causes are those appearing in C-repair
differences. Responsibilities are exact rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Instance
from .errors import PreconditionError
from .query import UCQ, eval_bcq, negate_query, violations
from .repair import HardConstraint, c_repairs, s_repairs, satisfies_hard


@dataclass(frozen=True)
class DiffSet:
    """A deletion difference between the instance and one repair."""

    deleted: frozenset[int]
    source: str  # "s_repair" or "c_repair"


@dataclass(frozen=True)
class CauseReport:
    tid: int
    responsibility: Fraction
    minimal_contingency_sets: tuple[frozenset[int], ...]
    is_counterfactual: bool
    is_most_responsible: bool

    def minimum_contingency_sets(self) -> tuple[frozenset[int], ...]:
        """Only the globally smallest contingency sets, of size
        1/responsibility - 1."""
        smallest = min(len(g) for g in self.minimal_contingency_sets)
        return tuple(
            g for g in self.minimal_contingency_sets if len(g) == smallest
        )


def dif_s(inst: Instance, q: UCQ, t: int) -> list[DiffSet]:
    """Deletion differences of S-repairs (wrt the negated query) containing t."""
    inst.fact(t)
    reps = s_repairs(inst, negate_query(q))
    return [DiffSet(r.deleted, "s_repair") for r in reps if t in r.deleted]


def dif_c(inst: Instance, q: UCQ, t: int) -> list[DiffSet]:
    """Deletion differences of C-repairs containing t."""
    inst.fact(t)
    reps = c_repairs(inst, negate_query(q))
    return [DiffSet(r.deleted, "c_repair") for r in reps if t in r.deleted]


def _sorted_sets(sets) -> tuple[frozenset[int], ...]:
    return tuple(sorted(set(sets), key=lambda s: (len(s), tuple(sorted(s)))))


def _reports(
    inst: Instance, q: UCQ, hard: Sequence[HardConstraint]
) -> list[CauseReport]:
    cs = negate_query(q)
    diffs = [r.deleted for r in s_repairs(inst, cs, hard) if r.deleted]
    if not diffs:
        return []
    smallest = min(len(d) for d in diffs)
    c_diffs = [d for d in diffs if len(d) == smallest]
    reports = []
    for t in sorted(inst.endogenous_tids):
        mine = [d for d in diffs if t in d]
        if not mine:
            continue
        gammas = _sorted_sets(d - {t} for d in mine)
        reports.append(
            CauseReport(
                tid=t,
                responsibility=Fraction(1, min(len(d) for d in mine)),
                minimal_contingency_sets=gammas,
                is_counterfactual=frozenset({t}) in mine,
                is_most_responsible=any(t in d for d in c_diffs),
            )
        )
    reports.sort(key=lambda r: (-r.responsibility, r.tid))
    return reports


def actual_causes(inst: Instance, q: UCQ) -> list[CauseReport]:
    """One report per endogenous tuple that is an actual cause for q,
    sorted by responsibility (descending) then tid."""
    return _reports(inst, q, ())


def causes_under_ics(
    inst: Instance, q: UCQ, hard: Sequence[HardConstraint]
) -> list[CauseReport]:
    """Causes when every involved database must satisfy the hard constraints:
    repairs violating them are discarded and responsibilities recomputed.

    The instance itself must satisfy the constraints.
    """
    for constraint in hard:
        if not satisfies_hard(inst, constraint):
            raise PreconditionError(
                f"instance violates hard constraint {constraint.render()}"
            )
    return _reports(inst, q, tuple(hard))


def contingency_sets(inst: Instance, q: UCQ, t: int) -> list[frozenset[int]]:
    """The subset-minimal contingency sets of t; empty iff t is no cause."""
    fact = inst.fact(t)
    if fact.exogenous:
        raise PreconditionError(
            f"exogenous tuples cannot be causes: {fact.render()}"
        )
    return list(_sorted_sets(d.deleted - {t} for d in dif_s(inst, q, t)))


def responsibility(inst: Instance, q: UCQ, t: int) -> Fraction:
    """1/|s| for a smallest S-repair difference containing t; 0 for non-causes."""
    diffs = dif_s(inst, q, t)
    if not diffs:
        return Fraction(0)
    return Fraction(1, min(len(d.deleted) for d in diffs))


def counterfactual_causes(inst: Instance, q: UCQ) -> list[int]:
    """Endogenous tuples whose sole deletion falsifies q: those in every
    witness of q, that is in every violation edge of the negated query."""
    if not eval_bcq(inst, q):
        return []
    edges = [e.tids for e in violations(inst, negate_query(q))]
    return sorted(inst.endogenous_tids.intersection(*edges))


def most_responsible_causes(inst: Instance, q: UCQ) -> list[int]:
    """Tuples with a nonempty C-repair difference, i.e. the argmax of
    responsibility over the actual causes."""
    reps = c_repairs(inst, negate_query(q))
    return sorted({t for r in reps for t in r.deleted})
