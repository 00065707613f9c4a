"""The answers read from the violation hypergraph, checked against the
enumeration route: every answer is also written here as a filter over the
full list of S-repairs, and both must agree on random hypergraphs. Then the
sizes the enumeration route cannot reach, checked against the benchmark's
own hitting-set arithmetic."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whydb import (
    CQ,
    UCQ,
    Atom,
    IrreparableError,
    PreconditionError,
    c_repairs,
    classify_subset,
    contingency_sets,
    dif_c,
    dif_s,
    load_instance,
    most_responsible_causes,
    negate_query,
    parse_constraints,
    parse_query,
    responsibility,
    s_repairs,
)
from whydb.query import ViolationEdge
from whydb.repair import (
    C_REPAIR,
    S_REPAIR,
    Hypergraph,
    _by_size,
    _components,
    _fewest,
    _minimal_edges,
    _minimal_hitting_sets,
)

from conftest import load_bench

hypergraph = load_bench("hypergraph")
chain_causes = load_bench("chain_causes")


@st.composite
def hypergraphs(draw):
    """Unary facts P(1)..P(n) and one query disjunct per edge. Base edges
    lie in disjoint blocks of tids, so some components are apart; a few
    extra edges are base edges plus other tids, so some are not minimal."""
    n = draw(st.integers(1, 40))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    bounds = [0, *cuts, n]
    base = []
    for low, high in zip(bounds, bounds[1:]):
        block = st.sampled_from(range(low + 1, high + 1))
        for _ in range(draw(st.integers(0, 3))):
            base.append(frozenset(draw(st.lists(block, min_size=1, max_size=3))))
    assume(base)
    # the product of the base edges' sizes bounds the number of S-repairs
    assume(prod(map(len, base)) <= 3000)
    wider = [
        draw(st.sampled_from(base))
        | frozenset(draw(st.lists(st.integers(1, n), min_size=1, max_size=2)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    exogenous = draw(st.sets(st.integers(1, n), max_size=n // 4))
    inst = load_instance(
        "".join(f"{'@exo ' if t in exogenous else ''}P({t}).\n" for t in range(1, n + 1))
    )
    q = UCQ(
        tuple(
            CQ(tuple(Atom("P", (str(t),)) for t in sorted(edge)))
            for edge in base + wider
        )
    )
    return inst, q


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IrreparableError as exc:
        return ("IrreparableError", str(exc))


@settings(deadline=None, max_examples=150)
@given(hypergraphs())
def test_hypergraph_answers_match_enumeration(case):
    inst, q = case
    kq = negate_query(q)
    try:
        reps = s_repairs(inst, kq)
    except IrreparableError as exc:
        error = ("IrreparableError", str(exc))
        assert _outcome(c_repairs, inst, kq) == error
        assert _outcome(most_responsible_causes, inst, q) == error
        for t in sorted(inst.tids):
            assert _outcome(responsibility, inst, q, t) == error
            assert _outcome(dif_s, inst, q, t) == error
        return
    fewest = min(len(r.deleted) for r in reps)
    creps = [r for r in reps if len(r.deleted) == fewest]
    assert c_repairs(inst, kq) == creps
    assert most_responsible_causes(inst, q) == sorted({t for r in creps for t in r.deleted})
    for r in reps:
        want = C_REPAIR if len(r.deleted) == fewest else S_REPAIR
        assert classify_subset(inst, kq, r.retained) == want
    for t in sorted(inst.tids):
        holding = [r.deleted for r in reps if t in r.deleted]
        assert [d.deleted for d in dif_s(inst, q, t)] == holding
        assert [d.deleted for d in dif_c(inst, q, t)] == [
            r.deleted for r in creps if t in r.deleted
        ]
        assert responsibility(inst, q, t) == (
            Fraction(1, len(holding[0])) if holding else Fraction(0)
        )
        if inst.fact(t).exogenous:
            with pytest.raises(PreconditionError):
                contingency_sets(inst, q, t)
        else:
            assert contingency_sets(inst, q, t) == [d - {t} for d in holding]


@st.composite
def families(draw):
    """Unary facts P(1)..P(n+1) with some exogenous, and violation edges
    over P(1)..P(n) drawn in disjoint blocks, so the components are apart
    unless a bridging edge joins two. Edges may repeat, hold one tuple or
    hold others; P(n+1) is in none. The family may be empty."""
    n = draw(st.integers(1, 16))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    bounds = [0, *cuts, n]
    edges = []
    for low, high in zip(bounds, bounds[1:]):
        block = st.integers(low + 1, high)
        edges += draw(st.lists(st.frozensets(block, min_size=1, max_size=3), max_size=4))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    edges += draw(
        st.lists(st.frozensets(st.integers(1, n), min_size=1, max_size=3), max_size=1)
    )
    assume(prod(map(len, edges)) <= 2000)
    exogenous = draw(st.sets(st.integers(1, n + 1), max_size=n // 4))
    inst = load_instance(
        "".join(f"{'@exo ' if t in exogenous else ''}P({t}).\n" for t in range(1, n + 2))
    )
    return inst, [ViolationEdge(edge, 0) for edge in edges]


@settings(deadline=None, max_examples=300)
@given(families())
def test_per_component_answers_match_one_search_over_the_whole_family(case):
    """The product over components against one search over all minimal
    edges at once, against the benchmark's separate transversal search, and
    the sizes against `_fewest` over the whole family."""
    inst, ground = case
    endogenous = [e.tids & inst.endogenous_tids for e in ground]
    if not all(endogenous):
        with pytest.raises(IrreparableError):
            Hypergraph(inst, ground)
        return
    graph = Hypergraph(inst, ground)
    whole = _minimal_edges(endogenous)
    expected = sorted(_minimal_hitting_sets(whole), key=_by_size)
    assert sorted(graph.transversals(), key=_by_size) == expected
    assert sorted(hypergraph.minimal_transversals(endogenous, 10**6), key=_by_size) == expected
    if not ground:
        assert expected == [frozenset()]

    fewest = _fewest(whole)
    assert graph.minimum_size() == fewest == len(expected[0])
    smallest = [d for d in expected if len(d) == fewest]
    assert sorted(graph.minimum_hitting_sets(), key=_by_size) == smallest

    for t in sorted(inst.tids):
        holding = [d for d in expected if t in d]
        assert graph.transversals_with(t) == holding
        own = [e for e in whole if t in e]
        rest = [f for f in whole if t not in f]
        size = min((1 + _fewest(f - e for f in rest) for e in own), default=0)
        assert graph.fewest_with(t) == size == (len(holding[0]) if holding else 0)
    assert graph.transversals_with(max(inst.tids)) == []


def _components_by_search(edges):
    """The reference for `_components`: a depth-first search over the edges,
    linked through an index of the edges holding each tuple."""
    holding = {}
    for i, edge in enumerate(edges):
        for t in edge:
            holding.setdefault(t, []).append(i)
    seen = set()
    out = []
    for first in range(len(edges)):
        if first in seen:
            continue
        seen.add(first)
        stack, members = [first], []
        while stack:
            i = stack.pop()
            members.append(i)
            for t in edges[i]:
                for j in holding[t]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        out.append([edges[i] for i in sorted(members)])
    return out


@settings(deadline=None, max_examples=500)
@given(
    st.lists(st.frozensets(st.integers(1, 30), min_size=1, max_size=4), max_size=20)
    | st.builds(
        # a path with its edges in a seeded order, which can chain the roots
        lambda n, seed: random.Random(seed).sample(
            [frozenset({i, i + 1}) for i in range(1, n)], n - 1
        ),
        st.integers(1, 60),
        st.integers(0, 1000),
    )
)
def test_components_match_the_search(edges):
    """The same components, in order of their first edge and with the edges
    in their given order, repeated edges included."""
    assert _components(edges) == _components_by_search(edges)


def test_fd_1100_fewest_with_every_tid():
    """1100 components of one edge each: a smallest S-repair deletion set
    holding any tuple deletes one tuple of every conflict."""
    inst = load_instance("".join(f"T(k{i},a). T(k{i},b).\n" for i in range(1100)))
    graph = Hypergraph.of(inst, parse_constraints("fd T: 1 -> 2.", inst))
    assert len(graph.minimal) == 1100
    assert {graph.fewest_with(t) for t in inst.tids} == {1100}
    assert graph.minimum_size() == 1100


CHAIN_QUERY = parse_query("q :- S(x), R(x,y), S(y).")


def _fact_text(fact):
    predicate, args = fact
    return f"{predicate}({','.join(args)})"


def _chain_instance(facts):
    return load_instance("".join(f"{_fact_text(fact)}.\n" for fact in facts))


@pytest.mark.parametrize("order", ["drawn", "sorted"])
def test_chain_60_responsibility_matches_exhaustive_search(order):
    facts = chain_causes.chain_facts(60, random.Random(1))
    if order == "sorted":
        facts.sort(key=_fact_text)
    inst = _chain_instance(facts)
    witnesses = hypergraph.minimal_sets(chain_causes.chain_witnesses(facts))
    expected = {}
    for t in sorted(inst.tids):
        denominator = hypergraph.responsibility_denominator(witnesses, t)
        expected[t] = Fraction(1, denominator) if denominator else Fraction(0)
        assert responsibility(inst, CHAIN_QUERY, t) == expected[t], t
    top = max(expected.values())
    assert most_responsible_causes(inst, CHAIN_QUERY) == sorted(
        t for t, rho in expected.items() if rho == top
    )


def test_chain_120_answers_do_not_depend_on_fact_order():
    """chain-120 is past every exhaustive check here, so its answers are
    checked against themselves: drawn and sorted fact order give each fact
    the same responsibility and name the same most responsible facts."""
    drawn = chain_causes.chain_facts(120, random.Random(1))
    answers = []
    for facts in (drawn, sorted(drawn, key=_fact_text)):
        inst = _chain_instance(facts)
        text = {t: inst.fact(t).atom_text() for t in inst.tids}
        rho = {text[t]: responsibility(inst, CHAIN_QUERY, t) for t in inst.tids}
        top = sorted(text[t] for t in most_responsible_causes(inst, CHAIN_QUERY))
        answers.append((rho, top))
    assert answers[0] == answers[1]
    assert answers[0][1]
