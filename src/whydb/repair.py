"""S- and C-repairs via minimal hitting sets of the violation hypergraph.

A retained subset is consistent exactly when its deleted complement hits
every violation edge, and it is subset-maximal exactly when that hitting set
is minimal. Only endogenous tuples may be deleted; a violation consisting of
exogenous tuples alone is irreparable.

`Hypergraph` is built once per (instance, constraint set). It keeps the
inclusion-minimal edges, which have the same minimal hitting sets as all
edges, split into connected components. The minimal hitting sets of a
disjoint union are exactly the unions of one minimal hitting set per part
(Eiter and Gottlob 1995), so every listing is a product over components:
each component is listed on its own, and the product joins one set of
each. Sizes add up the same way: a smallest hitting set is one of each
component, and each component's smallest size is found once.

One lazy search lists a family's minimal hitting sets, cut at a size if
asked; a smallest size is the least cut under which it finds one. The
search cuts a branch once a chosen tuple meets no edge alone, so it
reaches only minimal hitting sets. From the hypergraph come the S-repairs,
the C-repairs, the S-repairs holding one tuple, and the smallest of those.
`s_repairs` lists them all, less those breaking a hard constraint, which
judges a whole repair; `c_repairs` with hard constraints keeps the smallest
of those. A `Repair` they return stores its deletion set and the instance's
tids; its retained set is a `_Lazy` field, made from them when first read.

The search nests one step per chosen tuple inside a component; nesting
deeper than the recursion limit raises BudgetExceededError. The product is
flat, and its size is known at once: a listing of more than sys.maxsize
sets, more than a list can hold, raises it before its first set.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from ._scan import Scanner
from .core import Instance
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    IrreparableError,
    UnknownTidError,
    _nesting_budget,
)
from .query import (
    DC,
    ConstraintSet,
    ViolationEdge,
    _read_dc,
    _read_positions,
    violations,
)

INCONSISTENT = "inconsistent"
CONSISTENT_NOT_MAXIMAL = "consistent_not_maximal"
S_REPAIR = "s_repair"
C_REPAIR = "c_repair"


class _Lazy:
    """An attribute made the first time it is read, as `make(value)`, and
    stored on the value. Python calls a non-data descriptor only while the
    value lacks the name, so a value built with it never calls `make`. On
    the class it raises AttributeError, so a dataclass field has no default."""

    def __init__(self, make: Callable):
        self.make = make

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, value, owner: type):
        if value is None:
            raise AttributeError(self.name)
        made = self.make(value)
        object.__setattr__(value, self.name, made)
        return made


@dataclass(frozen=True)
class Repair:
    """A repair: the tids it retains and the tids it deletes. One listed by
    `s_repairs` or `c_repairs` stores its deletion set and the instance's
    tids, which all its repairs share, and fills in `retained` the first
    time it is read: most callers read only `deleted`, and the retained
    sets would take most of a listing's memory."""

    retained: frozenset[int] = _Lazy(lambda r: r._tids - r.deleted)
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

    def check_positions(self, arity: Callable[[str], int | None]) -> None:
        """Raise ArityMismatchError if a position lies past the arity of its
        predicate, the source's checked first. `arity` gives a predicate's
        arity, or None for one it does not know, whose positions pass."""
        for name, positions in (
            (self.source, self.source_positions),
            (self.target, self.target_positions),
        ):
            known = arity(name)
            if known is not None and max(positions) > known:
                raise ArityMismatchError(
                    f"position {max(positions)} out of range for {name}/{known}"
                )

    def render(self) -> str:
        src = ",".join(str(p) for p in self.source_positions)
        tgt = ",".join(str(p) for p in self.target_positions)
        return f"{self.source}[{src}] <= {self.target}[{tgt}]"


HardConstraint = Union[DC, ReferentialConstraint]


def satisfies_hard(inst: Instance, constraint: HardConstraint) -> bool:
    """Whether the instance satisfies one hard constraint."""
    if isinstance(constraint, ReferentialConstraint):
        constraint.check_positions(inst.arity)
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
    for start in sc.statements():
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
    return out


def _canonical(edge: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(edge))


def _by_size(deleted: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """The order of deletion sets in every answer: (size, sorted tids)."""
    return (len(deleted), _canonical(deleted))


def _disjoint_count(sets: Sequence[frozenset[int]]) -> int:
    """How many of the sets a greedy pass, smallest first, keeps pairwise
    disjoint: a lower bound on the size of any set that meets them all."""
    used: set[int] = set()
    count = 0
    for s in sorted(sets, key=len):
        if used.isdisjoint(s):
            used |= s
            count += 1
    return count


def _minimal_hitting_sets(
    edges: Sequence[frozenset[int]],
    start: frozenset[int] = frozenset(),
    most: int | None = None,
    what: str | None = None,
) -> Iterator[frozenset[int]]:
    """The minimal hitting sets of the edge family that contain `start`,
    each produced once, lazily. Callers pass the minimal edges in canonical
    order (`_minimal_edges`); any family gives the same sets.

    Branches over the free elements of the open edge with the fewest of
    them, in tid order; elements tried at a node are banned in later
    branches, so no selection comes twice. Each chosen element keeps its
    critical edges, those meeting the chosen set in it alone (MMCS,
    Murakami and Uno 2014). Choosing t drops the edges holding t from the
    other lists and gives t the open edges holding t. Lists only shrink,
    and a set is minimal iff none is empty, so a branch is cut once one
    is: every completed selection is minimal, and a start element in no
    edge yields nothing.

    With `most`, a branch is cut once its chosen elements plus the number
    of pairwise disjoint free parts of its open edges exceed `most`. The
    search recurses once per chosen element; nesting deeper than the
    recursion limit raises BudgetExceededError, which names `what`, by
    default the search over these edges. `Hypergraph` runs it on one
    component at a time, so it nests as deep as the deletions inside one
    component, and names the whole hypergraph in `what`.
    """

    def search(chosen: frozenset[int], critical, banned, open_edges):
        if not open_edges:
            yield chosen
            return
        # only the edges that meet `banned` lose elements; the rest are reused
        free = open_edges
        if banned:
            free = [e if banned.isdisjoint(e) else e - banned for e in open_edges]
        if most is not None and len(chosen) + _disjoint_count(free) > most:
            return
        blocked = banned
        for t in sorted(min(free, key=len)):
            kept = [[e for e in own if t not in e] for own in critical]
            if all(kept):
                kept.append([e for e in open_edges if t in e])
                rest = [e for e in open_edges if t not in e]
                yield from search(chosen | {t}, kept, blocked, rest)
            blocked = blocked | {t}

    critical = [[e for e in edges if e & start == {u}] for u in start]
    if not all(critical):
        return
    open_edges = [e for e in edges if not e & start]
    what = what or _search_name(edges)
    yield from _nesting_budget(search(start, critical, frozenset(), open_edges), what)


def _search_name(edges: Sequence[frozenset[int]]) -> str:
    return f"repair search over {len(edges)} violation edges"


def _product(
    parts: Sequence[Sequence[frozenset[int]]], what: str
) -> Iterator[frozenset[int]]:
    """Every union of one set from each part, lazily, in one flat iterator.
    More unions than sys.maxsize, more than any list can hold, raise
    BudgetExceededError naming `what` at once, before the first."""
    if math.prod(map(len, parts)) > sys.maxsize:
        raise BudgetExceededError(f"{what} has more sets than a list can hold")
    return itertools.starmap(frozenset().union, itertools.product(*parts))


def _minimal_edges(edges: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The inclusion-minimal members of a family, once each, in canonical
    order. An edge is checked against the kept edges, no larger, that share
    a tuple with it."""
    kept: list[frozenset[int]] = []
    holding: dict[int, list[frozenset[int]]] = {}
    for edge in sorted(edges, key=len):
        if any(f <= edge for t in edge for f in holding.get(t, ())):
            continue
        kept.append(edge)
        for t in edge:
            holding.setdefault(t, []).append(edge)
    return sorted(kept, key=_canonical)


def _components(edges: Sequence[frozenset[int]]) -> list[list[frozenset[int]]]:
    """The nonempty edges grouped into connected components, linked by
    shared tuples. Components come in order of their first edge, and keep
    the edges' order.

    A union-find over the tuples puts each edge's tuples under one root,
    then each edge joins the group of its first tuple's root. Each find
    halves its path (a tuple's parent becomes its grandparent), inline,
    since a call per tuple would cost more than the rest.
    """
    parent: dict[int, int] = {}  # a tuple's parent; a root has none
    get = parent.get
    for edge in edges:
        top = None
        for t in edge:
            up = get(t, t)
            while up != t:
                parent[t] = t = get(up, up)
                up = get(t, t)
            if top is None:
                top = t
            elif t != top:
                parent[t] = top
    groups: dict[int, list[frozenset[int]]] = {}
    for edge in edges:
        t = next(iter(edge))
        up = get(t, t)
        while up != t:
            parent[t] = t = get(up, up)
            up = get(t, t)
        groups.setdefault(t, []).append(edge)
    return list(groups.values())


def _fewest_in(component: Sequence[frozenset[int]], what: str | None = None) -> int:
    """The size of a smallest hitting set of one component's minimal edges.
    The bound `most` counts up from the disjoint-edge lower bound until the
    listing search finds a set under it (iterative deepening), so the first
    bound that succeeds is the smallest size."""
    most = _disjoint_count(component)
    while next(_minimal_hitting_sets(component, most=most, what=what), None) is None:
        most += 1
    return most


def _fewest(edges: Iterable[frozenset[int]], what: str | None = None) -> int:
    """The size of a smallest hitting set of a family of nonempty edges:
    its minimal edges split into connected components, and the sizes add
    up."""
    return sum(_fewest_in(c, what) for c in _components(_minimal_edges(edges)))


class Hypergraph:
    """The violation hypergraph of one instance under one constraint set.

    `minimal` holds the inclusion-minimal endogenous parts of the violation
    edges, in canonical order, by sorted tids. The S-repairs delete exactly
    the minimal hitting sets of all edges, which are those of `minimal`.
    These split into connected components, which share no tuple: every
    S-repair deletion set is one minimal hitting set of each component, and
    its size is the sum of theirs. So each answer lists, or sizes, each
    component on its own, and each component's smallest size is found once.
    """

    def __init__(self, inst: Instance, ground: Iterable[ViolationEdge]):
        endo = inst.endogenous_tids
        edges: set[frozenset[int]] = set()
        for edge in ground:
            candidates = edge.tids & endo
            if not candidates:
                facts = ", ".join(inst.fact(t).render() for t in sorted(edge.tids))
                raise IrreparableError(
                    f"violation {{{facts}}} involves only exogenous tuples"
                )
            edges.add(candidates)
        self.minimal = _minimal_edges(edges)
        self._parts = _components(self.minimal)
        self._part_of = {
            t: i for i, part in enumerate(self._parts) for e in part for t in e
        }
        self._minima: list[int | None] = [None] * len(self._parts)
        self._what = _search_name(self.minimal)

    @classmethod
    def of(cls, inst: Instance, cs: ConstraintSet) -> "Hypergraph":
        return cls(inst, violations(inst, cs))

    def _minimum(self, i: int) -> int:
        """The size of a smallest hitting set of component i, found once."""
        if self._minima[i] is None:
            self._minima[i] = _fewest_in(self._parts[i], self._what)
        return self._minima[i]

    def _listed(self, part, **limits) -> list[frozenset[int]]:
        return list(_minimal_hitting_sets(part, what=self._what, **limits))

    def transversals(self) -> Iterator[frozenset[int]]:
        """The S-repair deletion sets, every minimal hitting set: each
        component is listed at once, and their product lazily."""
        return _product([self._listed(part) for part in self._parts], self._what)

    def minimum_size(self) -> int:
        """The deletion count of every C-repair."""
        return sum(map(self._minimum, range(len(self._parts))))

    def minimum_hitting_sets(self) -> list[frozenset[int]]:
        """The deletion sets of the C-repairs: one smallest hitting set of
        each component."""
        parts = [
            self._listed(part, most=self._minimum(i))
            for i, part in enumerate(self._parts)
        ]
        return list(_product(parts, self._what))

    def transversals_with(self, t: int) -> list[frozenset[int]]:
        """The S-repair deletion sets that hold t, sorted by (size, tids).
        t is in one only if it is in some minimal edge; its own component's
        sets must hold it, and every other component's are free."""
        own = self._part_of.get(t)
        if own is None:
            return []
        parts = [
            self._listed(part, start=frozenset({t} if i == own else ()))
            for i, part in enumerate(self._parts)
        ]
        return sorted(_product(parts, self._what), key=_by_size)

    def fewest_with(self, t: int) -> int:
        """The size of a smallest S-repair deletion set holding t; 0 if none
        does.

        It is the smallest size of every other component, plus that of a
        smallest minimal hitting set of t's own component holding t: t, a
        minimal edge e that it meets in t alone, and a smallest hitting set
        of the parts f - e of the component's edges f without t.
        """
        own = self._part_of.get(t)
        if own is None:
            return 0
        part = self._parts[own]
        rest = [f for f in part if t not in f]
        within = min(
            1 + _fewest((f - e for f in rest), self._what) for e in part if t in e
        )
        others = (self._minimum(i) for i in range(len(self._parts)) if i != own)
        return within + sum(others)


def _repairs(inst: Instance, deleted: Iterable[frozenset[int]]) -> list[Repair]:
    """The repairs deleting each set, sorted by (deletion count, tids). Each
    holds the instance's one tids set and fills in its retained set when read."""
    tids = inst.tids
    out = []
    for d in sorted(deleted, key=_by_size):
        r = object.__new__(Repair)
        object.__setattr__(r, "deleted", d)
        object.__setattr__(r, "_tids", tids)
        out.append(r)
    return out


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
    found = Hypergraph.of(inst, cs).transversals()
    if hard:
        found = [
            d for d in found if all(satisfies_hard(inst.without(d), h) for h in hard)
        ]
    return _repairs(inst, found)


def c_repairs(
    inst: Instance,
    cs: ConstraintSet,
    hard: Sequence[HardConstraint] = (),
) -> list[Repair]:
    """The maximum-cardinality repairs. Without hard constraints they are
    the minimum hitting sets of the hypergraph; with them, the first size
    group of the sorted, filtered s_repairs, since a filter may discard
    every globally smallest repair."""
    if not hard:
        return _repairs(inst, Hypergraph.of(inst, cs).minimum_hitting_sets())
    repairs = s_repairs(inst, cs, hard)
    return [r for r in repairs if len(r.deleted) == len(repairs[0].deleted)]


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
    found = violations(inst, cs)
    edges = [e.tids for e in found]
    if any(e <= keep for e in edges):
        return INCONSISTENT
    deleted = inst.tids - keep
    endo = inst.endogenous_tids
    if deleted - endo or not all(any(e <= keep | {t} for e in edges) for t in deleted):
        return CONSISTENT_NOT_MAXIMAL
    fewest = Hypergraph(inst, found).minimum_size()
    return C_REPAIR if len(deleted) == fewest else S_REPAIR
