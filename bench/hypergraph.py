"""Hitting-set arithmetic the output checks rely on, written apart from whydb.

Witness sets are frozensets of tids. Internally sets are int bitmasks, and
every search here is a plain exhaustive branch search, so these helpers
share no code and no algorithm choices with `whydb.repair`.
"""

from __future__ import annotations

from typing import Iterable


def minimal_sets(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The inclusion-minimal members of a family, sorted by sorted tids."""
    family = set(sets)
    kept = [s for s in family if not any(o < s for o in family)]
    return sorted(kept, key=lambda s: sorted(s))


def mask(tids: Iterable[int]) -> int:
    out = 0
    for t in tids:
        out |= 1 << t
    return out


def _bits(value: int) -> list[int]:
    out = []
    while value:
        low = value & -value
        out.append(low)
        value ^= low
    return out


def min_hitting_set_size(masks: list[int]) -> int:
    """Size of a smallest set meeting every mask (0 for an empty family).

    Branches on the elements of an unmet mask with the fewest elements and
    cuts branches that cannot beat the best size found so far.
    """
    best = len(masks)

    def search(open_masks: list[int], size: int) -> None:
        nonlocal best
        if not open_masks:
            best = min(best, size)
            return
        if size + 1 >= best:
            return
        pivot = min(open_masks, key=lambda m: bin(m).count("1"))
        for bit in _bits(pivot):
            search([m for m in open_masks if not m & bit], size + 1)

    search(list(set(masks)), 0)
    return best


def minimal_transversals(edges: list[frozenset[int]], cap: int) -> list[frozenset[int]] | None:
    """All inclusion-minimal hitting sets of `edges`, or None as soon as
    more than `cap` have been found.

    Every hitting set is grown one element at a time from an unmet edge; an
    element is only added while each chosen element still meets some edge no
    other chosen element meets, and an element refused at a node is never
    added below it, so each minimal hitting set is found exactly once.
    """
    found: list[int] = []
    all_edges = [mask(e) for e in minimal_sets(edges)]

    def search(chosen: int, private: dict[int, list[int]], unmet: list[int], allowed: int) -> bool:
        if not unmet:
            found.append(chosen)
            return len(found) <= cap
        pivot = min(unmet, key=lambda m: bin(m & allowed).count("1"))
        later = allowed
        for bit in _bits(pivot & allowed):
            later &= ~bit
            kept: dict[int, list[int]] = {}
            for element, own in private.items():
                still = [m for m in own if not m & bit]
                if not still:
                    break
                kept[element] = still
            else:
                kept[bit] = [m for m in unmet if m & bit]
                if not search(chosen | bit, kept, [m for m in unmet if not m & bit], later):
                    return False
        return True

    if not search(0, {}, all_edges, mask(t for e in edges for t in e)):
        return None
    return [frozenset(t for t in range(m.bit_length()) if m >> t & 1) for m in found]


def responsibility_denominator(witnesses: list[frozenset[int]], t: int) -> int:
    """1 + the size of a smallest contingency set of `t`, or 0 if `t` is no
    cause. `witnesses` must be the inclusion-minimal witness sets.

    A contingency set G of t keeps some witness e that holds t (G misses e)
    and, with t, meets every witness: so G meets every witness f without t,
    and avoids e. Its smallest size is therefore, over witnesses e holding
    t, the smallest hitting set of the sets f - e.
    """
    holding = [e for e in witnesses if t in e]
    if not holding:
        return 0
    others = [f for f in witnesses if t not in f]
    return 1 + min(
        min_hitting_set_size([mask(f - e) for f in others]) for e in holding
    )


def is_minimal_contingency(witnesses: list[int], t: int, gamma: int) -> bool:
    """Whether `gamma` (a mask) is a subset-minimal contingency set of tid t.

    The query holds on D - X exactly when some witness misses X. So gamma
    must miss some witness, gamma + t must meet all of them, and dropping any
    one member of gamma must leave gamma + t short of that.
    """
    tbit = 1 << t
    if gamma & tbit:
        return False
    if all(w & gamma for w in witnesses):
        return False
    with_t = gamma | tbit
    if not all(w & with_t for w in witnesses):
        return False
    return all(
        not all(w & (with_t & ~bit) for w in witnesses) for bit in _bits(gamma)
    )
