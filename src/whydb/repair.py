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
reaches only minimal hitting sets. It runs on Python ints: each component
is held once as a `_Family`, one bit per tuple in tid order, each edge a
mask of its tuples, and each tuple's edges a mask of edge indices, so a
step of the search costs a few int operations per chosen tuple, not a
pass over its edges. From the hypergraph come the S-repairs,
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
from bisect import bisect_left
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


def _sorted_by_size(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """Deletion sets in the order of every answer: by size, then by sorted
    tids. The key is one int per set. A tid every set holds weighs 0, as it
    cannot change the order; the i-th of the n other tids, counted from 0
    in tid order, weighs 2**n - 2**(n-1-i). A set of k of those weighs
    k * 2**n less the sum of its tids' 2**(n-1-i), which is below 2**n, so
    sets sort by size first. Of two sets of one size, that sum is larger for
    the one holding the lowest tid the two do not share.

    The weights and keys take about n * (n + len(sets)) bits. Where that is
    more than a 64-bit word per tid the sets hold, counted with repeats,
    the key is the (size, sorted tids) tuple, so memory stays linear in the
    sets either way."""
    sets = list(sets)
    if len(sets) < 2:
        return sets
    shared = sets[0].intersection(*sets[1:])
    tids = sorted(set().union(*sets) - shared)
    n = len(tids)
    if n * (n + len(sets)) > 64 * sum(map(len, sets)):
        return sorted(sets, key=lambda d: (len(d), _canonical(d)))
    weight = dict.fromkeys(shared, 0)
    weight.update({t: (1 << n) - (1 << (n - 1 - i)) for i, t in enumerate(tids)})
    key = weight.__getitem__
    return sorted(sets, key=lambda d: sum(map(key, d)))


# A nonempty mask's bits from the lowest up, a set bit as "0" and a clear
# one as "1": masks over one tid order sort by it as their sets sort by
# `_canonical`. At the lowest bit where two masks differ, the one holding
# it sorts first, unless the other has no higher bit and so is a prefix.
_SET_FIRST = str.maketrans("01", "10")


def _mask_order(mask: int) -> str:
    return bin(mask)[:1:-1].translate(_SET_FIRST)


class _Family:
    """A family of edges as bitsets over its tuples. Bit i stands for
    `tids[i]`, the i-th smallest tid, so a mask's lowest set bit is its
    smallest tid. `edges` holds each edge as a mask of its tuples, and
    `occ[i]` the edges holding `tids[i]` as a mask over edge indices.
    `Hypergraph` makes one per component, once, for every search in it."""

    __slots__ = ("tids", "edges", "occ")

    def __init__(self, tids: list[int], edges: list[int]):
        occ = [0] * len(tids)
        for j, edge in enumerate(edges):
            while edge:
                low = edge & -edge
                occ[low.bit_length() - 1] |= 1 << j
                edge ^= low
        self.tids, self.edges, self.occ = tids, edges, occ

    @classmethod
    def of(cls, edges: Iterable[frozenset[int]]) -> "_Family":
        """The family of tid sets, in their order, over the tids they hold."""
        edges = list(edges)
        tids = sorted(set().union(*edges))
        bit = {t: 1 << i for i, t in enumerate(tids)}
        return cls(tids, [sum(map(bit.__getitem__, e)) for e in edges])


def _disjoint_count(sets: Sequence[int], cap: int | None = None) -> int:
    """How many of the masks a greedy pass, fewest bits first, keeps
    pairwise disjoint: a lower bound on the size of any set that meets them
    all. Past `cap` it stops: a count that would exceed `cap` is cap + 1."""
    used = count = 0
    for s in sorted(sets, key=int.bit_count):
        if not used & s:
            if count == cap:
                return count + 1
            used |= s
            count += 1
    return count


def _minimal_hitting_sets(
    edges: _Family | Sequence[frozenset[int]],
    start: Iterable[int] = frozenset(),
    most: int | None = None,
    what: str | None = None,
) -> Iterator[frozenset[int]]:
    """The minimal hitting sets of the edge family that contain `start`,
    each produced once, lazily. Callers pass a component's `_Family`, its
    minimal edges in canonical order; a sequence of tid sets is made into
    one, and any family gives the same sets.

    The search runs on bitsets. A node holds the open edges, those the
    chosen set misses, as masks of their free tuples and as one mask of
    edge indices, and each chosen tuple's critical edges, those meeting the
    chosen set in it alone (MMCS, Murakami and Uno 2014), as one mask of
    edge indices. It branches over the free bits of the open edge with the
    fewest of them, lowest bit first, so in tid order. A bit tried at a
    node is banned in its later branches, which clear it from their open
    edges, so no selection comes twice. Choosing t clears the edges of
    `occ[t]` from every critical mask and from the open edges, and gives t
    the open edges in `occ[t]`. Critical masks only shrink, and a set is
    minimal iff none is empty, so a branch is cut once one is: every
    completed selection is minimal, and a start tuple in no edge yields
    nothing.

    With `most`, a branch is cut once its chosen tuples plus the number of
    pairwise disjoint free parts of its open edges exceed `most`. The
    search nests one frame per chosen tuple but the one that completes a
    set, which is yielded where it is chosen; nesting deeper than the
    recursion limit raises BudgetExceededError, which names `what`, by
    default the search over these edges. `Hypergraph` runs it on one
    component at a time, so it nests as deep as the deletions inside one
    component, and names the whole hypergraph in `what`.
    """
    family = edges if isinstance(edges, _Family) else _Family.of(edges)
    tids, occ = family.tids, family.occ
    chosen = list(start)
    critical: dict[int, int] = {}  # a start tuple's bit: its critical edges
    for u in chosen:
        i = bisect_left(tids, u)
        if i == len(tids) or tids[i] != u:
            return
        critical[1 << i] = 0
    open_edges, open_mask = family.edges, (1 << len(family.edges)) - 1
    if critical:
        starts = sum(critical)
        open_edges, open_mask = [], 0
        for j, e in enumerate(family.edges):
            met = e & starts
            if not met:
                open_edges.append(e)
                open_mask |= 1 << j
            elif met in critical:
                critical[met] |= 1 << j
        if not all(critical.values()):
            return

    # `banned`: the bits tried at the parent before this branch, which the
    # open edges still hold; every bit banned above it is cleared already
    def search(critical, banned, open_edges, open_mask):
        if not open_mask:
            yield frozenset(chosen)
            return
        if banned:
            keep = ~banned
            open_edges = [e & keep for e in open_edges]
        if most is not None:
            room = most - len(chosen)
            if _disjoint_count(open_edges, room) > room:
                return
        branch = min(open_edges, key=int.bit_count)
        blocked = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            i = bit.bit_length() - 1
            held = occ[i]
            keep = ~held
            kept = [c & keep for c in critical]
            if all(kept):
                chosen.append(tids[i])
                if open_mask & keep:
                    kept.append(open_mask & held)
                    rest = [e for e in open_edges if not e & bit]
                    yield from search(kept, blocked, rest, open_mask & keep)
                else:  # t meets every open edge: the set is complete
                    yield frozenset(chosen)
                chosen.pop()
            blocked |= bit

    what = what or _search_name(family.edges)
    nodes = search(list(critical.values()), 0, open_edges, open_mask)
    yield from _nesting_budget(nodes, what)


def _search_name(edges: Sequence) -> str:
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


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal members of a family of masks over one tid
    order, once each, in canonical order (`_mask_order`)."""
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count):
        outside = ~mask
        if all(k & outside for k in kept):
            kept.append(mask)
    return sorted(kept, key=_mask_order)


def _mask_parts(masks: Sequence[int]) -> list[list[int]]:
    """The masks grouped into connected components, linked by shared bits,
    as `_components` groups tid sets: in order of their first mask, each
    keeping the masks' order."""
    unions: list[int] = []  # the bits of each component found so far
    for mask in masks:
        apart = []
        for u in unions:
            if u & mask:
                mask |= u
            else:
                apart.append(u)
        apart.append(mask)
        unions = apart
    parts: dict[int, list[int]] = {}
    for mask in masks:
        union = next(u for u in unions if u & mask)
        parts.setdefault(union, []).append(mask)
    return list(parts.values())


def _fewest_in(component: _Family, what: str | None = None) -> int:
    """The size of a smallest hitting set of one component's minimal edges.
    Pairwise disjoint edges, as one edge is, need one tuple each. Otherwise
    the bound `most` counts up from the disjoint-edge lower bound until the
    listing search finds a set under it (iterative deepening), so the first
    bound that succeeds is the smallest size."""
    most = _disjoint_count(component.edges)
    if most == len(component.edges):
        return most
    while next(_minimal_hitting_sets(component, most=most, what=what), None) is None:
        most += 1
    return most


def _fewest_over(tids: list[int], masks: Iterable[int], what: str | None = None) -> int:
    """The size of a smallest hitting set of a family of nonempty masks
    over `tids`: its minimal members split into connected components, and
    the sizes add up."""
    parts = _mask_parts(_minimal_masks(masks))
    return sum(_fewest_in(_Family(tids, part), what) for part in parts)


def _fewest(edges: Iterable[frozenset[int]], what: str | None = None) -> int:
    """The size of a smallest hitting set of a family of nonempty tid sets."""
    family = _Family.of(edges)
    return _fewest_over(family.tids, family.edges, what)


class Hypergraph:
    """The violation hypergraph of one instance under one constraint set.

    `minimal` holds the inclusion-minimal endogenous parts of the violation
    edges, in canonical order, by sorted tids. The S-repairs delete exactly
    the minimal hitting sets of all edges, which are those of `minimal`.
    These split into connected components, which share no tuple: every
    S-repair deletion set is one minimal hitting set of each component, and
    its size is the sum of theirs. So each answer lists, or sizes, each
    component on its own, and each component's smallest size is found once.
    Each component is held as its `_Family` of bitsets, made once.
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
        parts = _components(self.minimal)
        self._part_of = {t: i for i, part in enumerate(parts) for e in part for t in e}
        self._parts = [_Family.of(part) for part in parts]
        self._minima: list[int | None] = [None] * len(parts)
        self._what = _search_name(self.minimal)

    @classmethod
    def of(cls, inst: Instance, cs: ConstraintSet) -> "Hypergraph":
        return cls(inst, violations(inst, cs))

    def _minimum(self, i: int) -> int:
        """The size of a smallest hitting set of component i, found once."""
        if self._minima[i] is None:
            self._minima[i] = _fewest_in(self._parts[i], self._what)
        return self._minima[i]

    def _listed(self, part: _Family, **limits) -> list[frozenset[int]]:
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
            self._listed(part, start=(t,) if i == own else ())
            for i, part in enumerate(self._parts)
        ]
        return _sorted_by_size(_product(parts, self._what))

    def fewest_with(self, t: int) -> int:
        """The size of a smallest S-repair deletion set holding t; 0 if none
        does.

        It is the smallest size of every other component, plus that of a
        smallest minimal hitting set of t's own component holding t: t, a
        minimal edge e that it meets in t alone, and a smallest hitting set
        of the parts f & ~e of the component's edges f without t.
        """
        own = self._part_of.get(t)
        if own is None:
            return 0
        part = self._parts[own]
        bit = 1 << bisect_left(part.tids, t)
        rest = [f for f in part.edges if not f & bit]
        within = min(
            1 + _fewest_over(part.tids, [f & ~e for f in rest], self._what)
            for e in part.edges
            if e & bit
        )
        others = (self._minimum(i) for i in range(len(self._parts)) if i != own)
        return within + sum(others)


def _repairs(inst: Instance, deleted: Iterable[frozenset[int]]) -> list[Repair]:
    """The repairs deleting each set, sorted by (deletion count, tids). Each
    holds the instance's one tids set and fills in its retained set when read."""
    tids = inst.tids
    out = []
    for d in _sorted_by_size(deleted):
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
