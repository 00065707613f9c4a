"""S- and C-repairs via minimal hitting sets of the violation hypergraph.

A retained subset is consistent exactly when its deleted complement hits
every violation edge, and it is subset-maximal exactly when that hitting set
is minimal. Only endogenous tuples may be deleted; a violation consisting of
exogenous tuples alone is irreparable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ._scan import Scanner
from .core import Instance
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    IrreparableError,
    UnknownTidError,
)
from .query import DC, ConstraintSet, _read_dc, _read_positions, violations

INCONSISTENT = "inconsistent"
CONSISTENT_NOT_MAXIMAL = "consistent_not_maximal"
S_REPAIR = "s_repair"
C_REPAIR = "c_repair"


@dataclass(frozen=True)
class Repair:
    retained: frozenset[int]
    deleted: frozenset[int]


@dataclass(frozen=True)
class ReferentialConstraint:
    """Inclusion dependency over retained tuples:
    source[source_positions] must project into target[target_positions]."""

    source: str
    source_positions: tuple[int, ...]
    target: str
    target_positions: tuple[int, ...]

    def __post_init__(self):
        if not self.source_positions:
            raise ValueError("a referential constraint needs at least one position")
        if len(self.source_positions) != len(self.target_positions):
            raise ValueError("position lists must have equal length")
        if any(p < 1 for p in self.source_positions + self.target_positions):
            raise ValueError("positions are 1-based")

    def render(self) -> str:
        src = ",".join(str(p) for p in self.source_positions)
        tgt = ",".join(str(p) for p in self.target_positions)
        return f"{self.source}[{src}] <= {self.target}[{tgt}]"


HardConstraint = Union[DC, ReferentialConstraint]


def satisfies_hard(inst: Instance, constraint: HardConstraint) -> bool:
    """Whether the instance satisfies one hard constraint."""
    if isinstance(constraint, ReferentialConstraint):
        for name, positions in (
            (constraint.source, constraint.source_positions),
            (constraint.target, constraint.target_positions),
        ):
            arity = inst.arity(name)
            if arity is not None and max(positions) > arity:
                raise ArityMismatchError(
                    f"position {max(positions)} out of range for {name}/{arity}"
                )
        targets = {
            tuple(f.args[p - 1] for p in constraint.target_positions)
            for f in inst.of_predicate(constraint.target)
        }
        return all(
            tuple(f.args[p - 1] for p in constraint.source_positions) in targets
            for f in inst.of_predicate(constraint.source)
        )
    return not violations(inst, ConstraintSet((constraint,)))


def parse_hard_constraints(text: str) -> list[HardConstraint]:
    """Parse a hard-constraint file: DC statements (`:- ...`) and referential
    statements (`R[1] <= S[1].`), with `%` comments."""
    sc = Scanner(text)
    out: list[HardConstraint] = []
    while True:
        sc.skip_layout()
        if sc.eof():
            return out
        start = sc.pos
        if sc.try_token(":-"):
            out.append(_read_dc(sc, start))
            continue
        source = sc.read_identifier("predicate name or ':-'")
        sc.expect("[")
        src_positions = _read_positions(sc)
        sc.expect("]")
        sc.expect("<=")
        target = sc.read_identifier("predicate name")
        sc.expect("[")
        tgt_positions = _read_positions(sc)
        sc.expect("]")
        sc.expect(".")
        try:
            out.append(
                ReferentialConstraint(source, src_positions, target, tgt_positions)
            )
        except ValueError as exc:
            raise sc.error(str(exc), at=start) from None


def _minimal_hitting_sets(edges: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """All minimal hitting sets of the edge family, each produced once.

    Branches over the elements of the first uncovered edge in canonical
    order; elements already tried at a node are banned in later branches, so
    no selection is generated twice. A completed selection is kept only if
    every chosen element is the sole cover of some edge, which is exactly
    minimality. The search recurses once per chosen element; a search
    nested deeper than the recursion limit raises BudgetExceededError.
    """
    order = sorted(set(edges), key=lambda e: tuple(sorted(e)))
    found: list[frozenset[int]] = []

    def search(chosen: frozenset[int], banned: frozenset[int]) -> None:
        open_edge = None
        for edge in order:
            if not (edge & chosen):
                open_edge = edge
                break
        if open_edge is None:
            if all(any(edge & chosen == {t} for edge in order) for t in chosen):
                found.append(chosen)
            return
        blocked = banned
        for t in sorted(open_edge - banned):
            search(chosen | {t}, blocked)
            blocked = blocked | {t}

    try:
        search(frozenset(), frozenset())
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise BudgetExceededError(
            f"repair search over {len(edges)} violation edges needs more "
            f"nested steps than the recursion limit ({limit}) allows"
        ) from None
    return found


def _repair_sort_key(repair: Repair):
    return (len(repair.deleted), tuple(sorted(repair.deleted)))


def s_repairs(
    inst: Instance,
    cs: ConstraintSet,
    hard: Sequence[HardConstraint] = (),
) -> list[Repair]:
    """All subset-maximal consistent sub-instances reachable by deleting
    endogenous tuples, optionally filtered by hard constraints.

    Hard constraints are post-filters on candidate repairs: they discard
    repairs whose retained set violates them, they never trigger further
    deletions. Output is sorted by (deletion count, deleted tids).
    """
    edges = violations(inst, cs)
    endo = inst.endogenous_tids
    hitting_edges = []
    for edge in edges:
        candidates = edge.tids & endo
        if not candidates:
            facts = ", ".join(inst.fact(t).render() for t in sorted(edge.tids))
            raise IrreparableError(
                f"violation {{{facts}}} involves only exogenous tuples"
            )
        hitting_edges.append(candidates)
    repairs = [
        Repair(inst.tids - deleted, deleted)
        for deleted in _minimal_hitting_sets(hitting_edges)
    ]
    if hard:
        repairs = [
            r
            for r in repairs
            if all(satisfies_hard(inst.restrict(r.retained), h) for h in hard)
        ]
    repairs.sort(key=_repair_sort_key)
    return repairs


def c_repairs(
    inst: Instance,
    cs: ConstraintSet,
    hard: Sequence[HardConstraint] = (),
) -> list[Repair]:
    """The maximum-cardinality repairs: s_repairs with fewest deletions,
    computed after hard-constraint filtering."""
    candidates = s_repairs(inst, cs, hard)
    if not candidates:
        return []
    best = min(len(r.deleted) for r in candidates)
    return [r for r in candidates if len(r.deleted) == best]


def classify_subset(
    inst: Instance, cs: ConstraintSet, retained: Iterable[int]
) -> str:
    """Classify a retained tid-set directly from the definitions.

    The set is consistent when it holds no violation edge, and maximal when
    re-adding any deleted tuple completes one. Sets that delete exogenous
    tuples are never repairs here, and c_repair means an s_repair whose
    deletion count is globally minimal.
    """
    keep = frozenset(retained)
    unknown = keep - inst.tids
    if unknown:
        raise UnknownTidError(f"no tuple with tid {min(unknown)}")
    edges = [e.tids for e in violations(inst, cs)]
    if any(e <= keep for e in edges):
        return INCONSISTENT
    deleted = inst.tids - keep
    endo = inst.endogenous_tids
    if deleted - endo or not all(any(e <= keep | {t} for e in edges) for t in deleted):
        return CONSISTENT_NOT_MAXIMAL
    fewest = min(map(len, _minimal_hitting_sets([e & endo for e in edges])))
    return C_REPAIR if len(deleted) == fewest else S_REPAIR
