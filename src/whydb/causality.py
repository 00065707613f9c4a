"""Actual causes, contingency sets and responsibilities, from repairs.

A tuple is an actual cause for a true boolean query exactly when it appears
in the deletion difference of some S-repair with respect to the negated
query; each such difference minus the tuple itself is a subset-minimal
contingency set, and the responsibility is one over the size of a smallest
difference. Most responsible causes are those appearing in C-repair
differences. Responsibilities are exact rationals, never floats.

The per-tuple answers read the negated query's `Hypergraph`: `dif_s` and
`contingency_sets` take only the S-repair differences holding the tuple,
and `responsibility` only the size of a smallest one. `dif_c` takes only
the minimum hitting sets holding the tuple, and `most_responsible_causes`
reads `c_repairs`, which finds those sets directly. Only `actual_causes`
and `causes_under_ics` list every S-repair: they report every cause, and
hard constraints judge whole repairs. A report they return holds the
S-repair differences with its tuple, the very sets `s_repairs` listed,
shared between the causes, and makes its contingency sets from them when
they are first read. Every list of differences is a product over the
hypergraph's connected components, and every size a sum over them. A
thousand deletions inside one component, past the recursion limit, or
more than sys.maxsize differences, more than a list can hold, raise
BudgetExceededError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Instance
from .errors import PreconditionError
from .query import UCQ, eval_bcq, negate_query, violations
from .repair import (
    HardConstraint,
    Hypergraph,
    ReferentialConstraint,
    _Lazy,
    _sorted_by_size,
    c_repairs,
    s_repairs,
    satisfies_hard,
)


@dataclass(frozen=True)
class DiffSet:
    """A deletion difference between the instance and one repair."""

    deleted: frozenset[int]
    source: str  # "s_repair" or "c_repair"


@dataclass(frozen=True)
class CauseReport:
    """An actual cause: its tid, its responsibility and its subset-minimal
    contingency sets, sorted by (size, tids). One from `actual_causes` or
    `causes_under_ics` stores `_differences`, the S-repair differences that
    hold its tid, shared with other causes, and makes its contingency sets,
    each difference less the tid, when first read: the CLI prints only the
    differences, and the sets would take most of the causes' memory. One
    built from its sets (such as the oracle's) makes its differences."""

    tid: int
    responsibility: Fraction
    minimal_contingency_sets: tuple[frozenset[int], ...] = _Lazy(
        lambda r: tuple(d - {r.tid} for d in r._differences)
    )
    is_counterfactual: bool
    is_most_responsible: bool

    _differences = _Lazy(
        lambda r: tuple(g | {r.tid} for g in r.minimal_contingency_sets)
    )

    def minimum_contingency_sets(self) -> tuple[frozenset[int], ...]:
        """Only the globally smallest contingency sets, of size
        1/responsibility - 1."""
        smallest = min(map(len, self._differences))
        return tuple(d - {self.tid} for d in self._differences if len(d) == smallest)


def dif_s(inst: Instance, q: UCQ, t: int) -> list[DiffSet]:
    """Deletion differences of S-repairs (wrt the negated query) containing
    t, sorted by (size, tids)."""
    inst.fact(t)
    graph = Hypergraph.of(inst, negate_query(q))
    return [DiffSet(d, "s_repair") for d in graph.transversals_with(t)]


def dif_c(inst: Instance, q: UCQ, t: int) -> list[DiffSet]:
    """Deletion differences of C-repairs containing t, sorted by (size,
    tids)."""
    inst.fact(t)
    found = Hypergraph.of(inst, negate_query(q)).minimum_hitting_sets()
    holding = _sorted_by_size(d for d in found if t in d)
    return [DiffSet(d, "c_repair") for d in holding]


def _reports(
    inst: Instance, q: UCQ, hard: Sequence[HardConstraint]
) -> list[CauseReport]:
    """One report per tuple in some S-repair difference, holding the
    differences with that tuple. The differences come sorted by
    (size, tids), and removing t from each keeps that order, so every
    tuple's contingency sets come out sorted and distinct."""
    diffs = [r.deleted for r in s_repairs(inst, negate_query(q), hard) if r.deleted]
    held: dict[int, list[frozenset[int]]] = {}
    for d in diffs:
        for t in d:
            held.setdefault(t, []).append(d)
    reports = []
    for t, mine in held.items():
        r = object.__new__(CauseReport)
        object.__setattr__(r, "tid", t)
        object.__setattr__(r, "responsibility", Fraction(1, len(mine[0])))
        object.__setattr__(r, "is_counterfactual", len(mine[0]) == 1)
        object.__setattr__(r, "is_most_responsible", len(mine[0]) == len(diffs[0]))
        object.__setattr__(r, "_differences", tuple(mine))
        reports.append(r)
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

    The instance itself must satisfy the constraints, so each DC among them
    holds in every sub-instance and only referential constraints filter.
    """
    for constraint in hard:
        if not satisfies_hard(inst, constraint):
            raise PreconditionError(
                f"instance violates hard constraint {constraint.render()}"
            )
    return _reports(inst, q, [h for h in hard if isinstance(h, ReferentialConstraint)])


def contingency_sets(inst: Instance, q: UCQ, t: int) -> list[frozenset[int]]:
    """The subset-minimal contingency sets of t, empty iff t is no cause;
    an exogenous t raises PreconditionError."""
    fact = inst.fact(t)
    if fact.exogenous:
        raise PreconditionError(
            f"exogenous tuples cannot be causes: {fact.render()}"
        )
    graph = Hypergraph.of(inst, negate_query(q))
    return [d - {t} for d in graph.transversals_with(t)]


def responsibility(inst: Instance, q: UCQ, t: int) -> Fraction:
    """1/|s| for a smallest S-repair difference containing t; 0 for non-causes."""
    inst.fact(t)
    size = Hypergraph.of(inst, negate_query(q)).fewest_with(t)
    return Fraction(1, size) if size else Fraction(0)


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
