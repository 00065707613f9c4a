import copy
import dataclasses
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whydb import (
    DC,
    ArityMismatchError,
    AspDialect,
    BudgetExceededError,
    CausalityOptions,
    EmitError,
    IrreparableError,
    ParseError,
    Repair,
    ReferentialConstraint,
    UnknownTidError,
    brute_repairs,
    c_repairs,
    classify_subset,
    emit_causality_program,
    load_instance,
    negate_query,
    parse_constraints,
    parse_hard_constraints,
    parse_query,
    s_repairs,
    violations,
)
from whydb.oracle import _consistent
from whydb.repair import (
    C_REPAIR,
    CONSISTENT_NOT_MAXIMAL,
    INCONSISTENT,
    S_REPAIR,
    Hypergraph,
    _components,
    _fewest,
    _Family,
    _mask_parts,
    _minimal_edges,
    _minimal_hitting_sets,
    _minimal_masks,
    _product,
)

from conftest import D1_ATOMS, D2_ATOMS, D3_ATOMS, load_bench, retained_atoms
from corpus import corpus

chain_causes = load_bench("chain_causes")


@pytest.fixture
def kq(qstar):
    return negate_query(qstar)


def test_minimal_hitting_sets_basic():
    edges = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    found = set(_minimal_hitting_sets(edges))
    assert found == {frozenset({2, 3}), frozenset({2, 4}), frozenset({1, 3})}


def test_minimal_hitting_sets_no_edges():
    assert list(_minimal_hitting_sets([])) == [frozenset()]


def _brute_transversals(edges, n):
    """The minimal hitting sets of the edges over tids 1..n, straight from
    the definition: every subset, kept if it meets every edge and no subset
    with one element less does."""
    masks = [sum(1 << (t - 1) for t in edge) for edge in edges]
    hits = [all(m & e for e in masks) for m in range(1 << n)]
    return {
        frozenset(t + 1 for t in range(n) if m >> t & 1)
        for m in range(1 << n)
        if hits[m] and not any(hits[m & ~(1 << t)] for t in range(n) if m >> t & 1)
    }


@st.composite
def _families(draw):
    n = draw(st.integers(1, 14))
    tids = st.integers(1, n)
    edges = draw(st.lists(st.frozensets(tids, min_size=1, max_size=5), max_size=10))
    return n, edges, draw(st.frozensets(tids, max_size=2)), draw(st.integers(0, n))


@settings(max_examples=200, deadline=None)
@given(_families())
def test_minimal_hitting_sets_match_brute_force(family):
    """The search with and without a start or a cut, and the smallest size,
    against the definition, on families with repeated and non-minimal edges:
    each set exactly once, and none that is not minimal."""
    n, edges, start, most = family
    expected = _brute_transversals(edges, n)

    found = list(_minimal_hitting_sets(edges))
    assert len(found) == len(set(found)) and set(found) == expected

    found = list(_minimal_hitting_sets(edges, start=start))
    assert len(found) == len(set(found))
    assert set(found) == {h for h in expected if start <= h}

    found = list(_minimal_hitting_sets(edges, most=most))
    assert len(found) == len(set(found))
    assert set(found) == {h for h in expected if len(h) <= most}

    assert _fewest(edges) == min(map(len, expected))


def _reference_disjoint_count(sets):
    used = set()
    count = 0
    for s in sorted(sets, key=len):
        if used.isdisjoint(s):
            used |= s
            count += 1
    return count


def _reference_hitting_sets(edges, start=frozenset(), most=None):
    """The frozenset form of the search, the reference for the bitset
    kernel: the same branching (the open edge with the fewest free tuples,
    in tid order, tried tuples banned in later branches), the same
    critical-edge cut and the same `most` cut, on lists of frozensets."""

    def search(chosen, critical, banned, open_edges):
        if not open_edges:
            yield chosen
            return
        free = open_edges
        if banned:
            free = [e if banned.isdisjoint(e) else e - banned for e in open_edges]
        if most is not None and len(chosen) + _reference_disjoint_count(free) > most:
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
    yield from search(start, critical, frozenset(), open_edges)


def _reference_fewest(edges):
    """The smallest hitting set size by iterative deepening of the
    reference search, per component of the minimal edges."""
    total = 0
    for component in _components(_minimal_edges(edges)):
        most = _reference_disjoint_count(component)
        while next(_reference_hitting_sets(component, most=most), None) is None:
            most += 1
        total += most
    return total


def _reference_fewest_with(graph, t):
    """`Hypergraph.fewest_with` by the reference route: frozenset families
    `f - e`, sized by the reference search."""
    parts = _components(graph.minimal)
    own = [part for part in parts if any(t in e for e in part)]
    if not own:
        return 0
    rest = [f for f in own[0] if t not in f]
    within = min(1 + _reference_fewest(f - e for f in rest) for e in own[0] if t in e)
    return within + sum(_reference_fewest(part) for part in parts if part is not own[0])


@st.composite
def _searches(draw):
    """A family over tids 1..n with repeated edges, non-minimal edges (an
    edge plus other tids) and possibly empty edges; a start that may hold
    tids 1..n+2, the last two in no edge; and a cut from 0 to n, or none."""
    n = draw(st.integers(1, 12))
    tids = st.integers(1, n)
    edges = draw(st.lists(st.frozensets(tids, max_size=4), max_size=9))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
        edges += [
            draw(st.sampled_from(edges)) | draw(st.frozensets(tids, min_size=1, max_size=2))
            for _ in range(draw(st.integers(0, 2)))
        ]
    start = draw(st.frozensets(st.integers(1, n + 2), max_size=3))
    return edges, start, draw(st.none() | st.integers(0, n))


@settings(max_examples=400, deadline=None)
@given(_searches())
@example(([], frozenset(), None))
@example(([], frozenset(), 0))
@example(([], frozenset({1}), None))
@example(([frozenset()], frozenset(), None))
@example(([frozenset({1, 2}), frozenset()], frozenset({1}), 2))
@example(([frozenset({1, 2}), frozenset({2, 3})], frozenset({4}), None))
@example(([frozenset({1, 2}), frozenset({1, 2, 3})], frozenset({1, 3}), 1))
def test_minimal_hitting_sets_yield_the_reference_sequence(search):
    """The bitset kernel yields the reference's sets in the reference's
    order, from a family of tid sets and from its `_Family` alike."""
    edges, start, most = search
    expected = list(_reference_hitting_sets(edges, start, most))
    assert list(_minimal_hitting_sets(edges, start=start, most=most)) == expected
    family = _Family.of(edges)
    assert list(_minimal_hitting_sets(family, start=start, most=most)) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.frozensets(st.integers(1, 20), min_size=1, max_size=4), max_size=16))
def test_mask_helpers_match_the_tid_set_helpers(edges):
    """The minimal masks and their components are those of the tid sets, in
    the same canonical order, so the size search meets the same families."""
    family = _Family.of(edges)

    def tids_of(mask):
        return frozenset(t for i, t in enumerate(family.tids) if mask >> i & 1)

    minimal = _minimal_masks(family.edges)
    assert [tids_of(m) for m in minimal] == _minimal_edges(edges)
    parts = [[tids_of(m) for m in part] for part in _mask_parts(minimal)]
    assert parts == _components(_minimal_edges(edges))
    if edges:
        assert _fewest(edges) == _reference_fewest(edges)


def _chain_graph(n, order):
    facts = chain_causes.chain_facts(n, random.Random(1))
    if order == "sorted":
        facts.sort(key=lambda fact: f"{fact[0]}({','.join(fact[1])})")
    inst = load_instance("".join(f"{p}({','.join(a)}).\n" for p, a in facts))
    q = negate_query(parse_query("q :- S(x), R(x,y), S(y)."))
    return inst, Hypergraph.of(inst, q)


@pytest.mark.parametrize("order", ["drawn", "sorted"])
@pytest.mark.parametrize("n", [60, 120])
def test_fewest_with_matches_the_reference_route_on_chains(n, order):
    inst, graph = _chain_graph(n, order)
    for t in sorted(inst.tids):
        assert graph.fewest_with(t) == _reference_fewest_with(graph, t), t


# one tid of each of the first, a middle and the last conflicts, both sides
FD_1100_SAMPLE = (1, 2, 7, 1101, 1102, 2199, 2200)


def test_fewest_with_matches_the_reference_route_on_fd_1100():
    inst = load_instance("".join(f"T(k{i},a). T(k{i},b).\n" for i in range(1100)))
    graph = Hypergraph.of(inst, parse_constraints("fd T: 1 -> 2.", inst))
    for t in FD_1100_SAMPLE:
        assert graph.fewest_with(t) == _reference_fewest_with(graph, t) == 1100, t


def _pairs(*tids):
    return [frozenset({a, b}) for a in tids for b in tids if a < b]


def _cycle(n):
    return [frozenset({i, i % n + 1}) for i in range(1, n + 1)]


@pytest.mark.parametrize(
    "edges, size",
    [
        pytest.param(_cycle(3), 2, id="triangle"),
        pytest.param(_cycle(5), 3, id="5-cycle"),
        pytest.param(_pairs(1, 2, 3, 4), 3, id="all-pairs-of-4"),
    ],
)
def test_fewest_deepens_past_the_disjoint_bound(edges, size):
    """Families whose disjoint-edge bound is below the smallest size, so the
    cut must be raised at least once before a set is found."""
    assert _fewest(edges) == size


def test_fewest_on_a_long_path():
    """A path of 400 edges: one component whose smallest hitting set takes
    every other of its 401 tids."""
    edges = [frozenset({i, i + 1}) for i in range(1, 401)]
    assert _fewest(edges) == 200


def test_minimal_hitting_sets_too_deep_is_a_budget_error():
    edges = [frozenset({2 * i + 1, 2 * i + 2}) for i in range(1100)]
    with pytest.raises(BudgetExceededError, match="1100 violation edges"):
        list(_minimal_hitting_sets(edges))


def _pairs(n):
    """n parts of two disjoint singletons each: 2**n unions."""
    return [[frozenset({2 * i + 1}), frozenset({2 * i + 2})] for i in range(n)]


def test_product_past_maxsize_is_refused_before_its_first_set():
    # 2**63 unions, more than sys.maxsize: not even the first is made
    with pytest.raises(BudgetExceededError, match="63 pairs"):
        next(iter(_product(_pairs(63), "63 pairs")))


def test_product_up_to_maxsize_is_lazy():
    # 2**62 unions: only the first is made, from each part's first set
    assert next(_product(_pairs(62), "62 pairs")) == frozenset(range(1, 124, 2))


def test_product_of_many_single_sets_is_one_set():
    parts = [[frozenset({i})] for i in range(1, 1101)]
    assert list(_product(parts, "1100 parts")) == [frozenset(range(1, 1101))]


def test_s_repairs_of_many_components_with_one_repair():
    inst = load_instance("".join(f"P(c{i}).\n" for i in range(1100)))
    (repair,) = s_repairs(inst, parse_constraints(":- P(x)."))
    assert repair.deleted == frozenset(range(1, 1101))


@pytest.mark.parametrize(
    "source, target, message",
    [
        pytest.param((), (), "at least one position", id="no-positions"),
        pytest.param((1,), (1, 2), "equal length", id="lengths"),
        pytest.param((0,), (1,), "1-based", id="zero"),
    ],
)
def test_referential_constraint_rejects_malformed_positions(source, target, message):
    with pytest.raises(ValueError, match=message):
        ReferentialConstraint("R", source, "S", target)


def test_s_repairs_running_example(dstar, kq):
    reps = s_repairs(dstar, kq)
    assert [sorted(r.deleted) for r in reps] == [[6], [1, 3], [3, 4]]
    assert [retained_atoms(dstar, r) for r in reps] == [D1_ATOMS, D2_ATOMS, D3_ATOMS]


def test_c_repairs_running_example(dstar, kq):
    reps = c_repairs(dstar, kq)
    assert len(reps) == 1
    assert retained_atoms(dstar, reps[0]) == D1_ATOMS


def test_repairs_example_two(d2star, k12):
    reps = s_repairs(d2star, k12)
    assert [retained_atoms(d2star, r) for r in reps] == [
        {"P(e)", "Q(a,b)", "R(a,c)"},
        {"P(a)", "P(e)"},
    ]
    creps = c_repairs(d2star, k12)
    assert [retained_atoms(d2star, r) for r in creps] == [
        {"P(e)", "Q(a,b)", "R(a,c)"}
    ]


def test_consistent_instance_single_trivial_repair():
    inst = load_instance("P(a). Q(b,c).")
    cs = parse_constraints(":- P(x), Q(x,y).")
    assert s_repairs(inst, cs) == [Repair(inst.tids, frozenset())]
    assert c_repairs(inst, cs) == [Repair(inst.tids, frozenset())]


def test_irreparable_all_exogenous_violation(qstar):
    inst = load_instance("@exo S(a3). @exo R(a3,a3).")
    with pytest.raises(IrreparableError):
        s_repairs(inst, negate_query(qstar))


def test_partially_exogenous(dstar, qstar):
    marked = load_instance(
        "R(a4,a3). R(a2,a1). R(a3,a3). S(a4). S(a2). @exo S(a3)."
    )
    reps = s_repairs(marked, negate_query(qstar))
    assert [sorted(r.deleted) for r in reps] == [[1, 3], [3, 4]]


def test_classify_subset_cases(dstar, kq):
    d1 = {1, 2, 3, 4, 5}
    d3 = dstar.tids - {3, 4}  # deletes R(a3,a3) and S(a4)
    assert classify_subset(dstar, kq, d1) == C_REPAIR
    assert classify_subset(dstar, kq, d3) == S_REPAIR
    assert classify_subset(dstar, kq, set()) == CONSISTENT_NOT_MAXIMAL
    assert classify_subset(dstar, kq, dstar.tids) == INCONSISTENT


def test_classify_subset_unknown_tid(dstar, kq):
    with pytest.raises(UnknownTidError):
        classify_subset(dstar, kq, {1, 99})


def test_classify_subset_never_blesses_exogenous_deletion():
    inst = load_instance("P(a). @exo Q(a,b).")
    cs = parse_constraints(":- P(x), Q(x,y).")
    # {1} deletes the exogenous tuple: consistent and maximal, yet no repair
    assert classify_subset(inst, cs, {1}) == CONSISTENT_NOT_MAXIMAL
    assert classify_subset(inst, cs, {2}) == C_REPAIR
    # an exogenous tuple in every violation does not make a cheaper repair
    inst = load_instance("@exo P(a). Q(a,b). Q(a,c).")
    assert classify_subset(inst, cs, {1}) == C_REPAIR


def test_every_returned_repair_classifies(dstar, kq):
    for r in s_repairs(dstar, kq):
        assert classify_subset(dstar, kq, r.retained) in (S_REPAIR, C_REPAIR)
    for r in c_repairs(dstar, kq):
        assert classify_subset(dstar, kq, r.retained) == C_REPAIR


def test_union_of_deletions_covers_all_edges(dstar, kq):
    reps = s_repairs(dstar, kq)
    union = set().union(*(r.deleted for r in reps))
    edge_union = set().union(*(e.tids for e in violations(dstar, kq)))
    assert union == edge_union


def test_referential_hard_filter(dstar, kq):
    hard = parse_hard_constraints("R[1] <= S[1].")
    reps = s_repairs(dstar, kq, hard)
    assert [sorted(r.deleted) for r in reps] == [[1, 3]]
    assert c_repairs(dstar, kq, hard) == reps


def test_c_repairs_under_hard_constraints_are_the_smallest_survivors():
    # S-repairs delete {1,5}, {1,6,7}, {2,3,4,5} and {2,3,4,6,7}; the hard
    # constraint keeps P(a), #1, so it discards both global minima
    inst = load_instance(
        "P(a). Q(a,b). Q(a,c). Q(a,d). P(g). Q(g,h). Q(g,i). @exo A(a)."
    )
    cs = parse_constraints(":- P(x), Q(x,y).")
    hard = parse_hard_constraints("A[1] <= P[1].")
    assert [sorted(r.deleted) for r in c_repairs(inst, cs)] == [[1, 5]]
    assert [sorted(r.deleted) for r in s_repairs(inst, cs, hard)] == [
        [2, 3, 4, 5],
        [2, 3, 4, 6, 7],
    ]
    assert [sorted(r.deleted) for r in c_repairs(inst, cs, hard)] == [[2, 3, 4, 5]]


def test_dc_hard_filter_can_empty_the_repair_set(dstar, kq):
    hard = parse_hard_constraints(":- S(x), S(y), x != y.")
    assert s_repairs(dstar, kq, hard) == []
    assert c_repairs(dstar, kq, hard) == []


def test_hard_filter_never_adds_repairs(dstar, kq):
    unfiltered = {r.retained for r in s_repairs(dstar, kq)}
    for text in ["R[1] <= S[1].", ":- S(x), S(y), x != y.", "S[1] <= R[2]."]:
        hard = parse_hard_constraints(text)
        filtered = {r.retained for r in s_repairs(dstar, kq, hard)}
        assert filtered <= unfiltered


def test_parse_hard_constraints():
    hard = parse_hard_constraints(
        "% referential plus a denial\nR[1,2] <= S[1,2].\n:- P(x), Q(x,y)."
    )
    assert isinstance(hard[0], ReferentialConstraint)
    assert hard[0].source_positions == (1, 2)
    assert isinstance(hard[1], DC)


def test_parse_hard_constraints_errors():
    with pytest.raises(ParseError):
        parse_hard_constraints("R[1] <= S[1,2].")
    with pytest.raises(ParseError):
        parse_hard_constraints("R[] <= S[1].")
    with pytest.raises(ParseError):
        parse_hard_constraints("nonsense")


def test_referential_position_out_of_range(dstar, kq):
    hard = parse_hard_constraints("R[3] <= S[1].")
    with pytest.raises(ArityMismatchError):
        s_repairs(dstar, kq, hard)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("R[3] <= S[1].", ArityMismatchError, "position 3 out of range for R/2"),
        ("S[1] <= R[3].", ArityMismatchError, "position 3 out of range for R/2"),
        # the source is checked first; the repair filter lets an unknown
        # predicate pass, and the emitter rejects it
        ("S[2] <= Z[1].", ArityMismatchError, "position 2 out of range for S/1"),
        ("Z[1] <= S[2].", EmitError, "unknown arity for predicate 'Z' in hard constraint"),
    ],
)
def test_repairs_and_programs_share_the_position_check(
    dstar, qstar, kq, text, error, message
):
    """Repairs and emitted programs reject a position past its predicate's
    arity by one check, with one error type and text."""
    hard = parse_hard_constraints(text)
    if error is ArityMismatchError:
        with pytest.raises(error, match=f"^{message}$"):
            s_repairs(dstar, kq, hard)
    opts = CausalityOptions(hard_constraints=tuple(hard))
    with pytest.raises(error, match=f"^{message}$"):
        emit_causality_program(dstar, qstar, AspDialect.EXTENDED, opts)


def test_repairs_deterministic(dstar, kq):
    assert s_repairs(dstar, kq) == s_repairs(dstar, kq)


def test_empty_constraint_set_is_trivially_consistent(dstar):
    cs = parse_constraints("")
    assert s_repairs(dstar, cs) == [Repair(dstar.tids, frozenset())]


def test_classify_subset_matches_oracle_on_corpus():
    classified = 0
    for inst, q in corpus(200):
        if len(inst) > 8:
            continue
        cs = negate_query(q)
        repairs = {r.retained: r.c_repair for r in brute_repairs(inst, cs)}
        tids = sorted(inst.tids)
        for mask in range(2 ** len(tids)):
            keep = frozenset(t for i, t in enumerate(tids) if mask >> i & 1)
            if keep in repairs:
                want = C_REPAIR if repairs[keep] else S_REPAIR
            elif _consistent([inst.fact(t) for t in sorted(keep)], cs):
                want = CONSISTENT_NOT_MAXIMAL
            else:
                want = INCONSISTENT
            assert classify_subset(inst, cs, keep) == want, (inst.to_text(), q, keep)
            classified += 1
    assert classified > 1000


def test_repair_contract_holds_for_listed_and_built_repairs(dstar, kq):
    """A repair from `s_repairs`, which fills in `retained` on first read,
    and one built from both sets act as one frozen dataclass value."""
    built = Repair(dstar.tids - {1, 3}, frozenset({1, 3}))
    # copies of listed repairs whose `retained` nothing has read yet
    unread = [s_repairs(dstar, kq)[1] for _ in range(3)]
    twins = [
        pickle.loads(pickle.dumps(unread[0])),
        copy.copy(unread[1]),
        copy.deepcopy(unread[2]),
    ]
    for twin, original in zip(twins, unread):
        assert twin == built == original and type(twin) is Repair
    listed = s_repairs(dstar, kq)[1]
    assert listed == built and built == listed
    assert not (listed != built)
    assert hash(listed) == hash(built) == hash((built.retained, built.deleted))
    assert len({listed, built}) == 1
    assert listed != Repair(built.retained, frozenset())
    assert Repair.__eq__(listed, (built.retained, built.deleted)) is NotImplemented
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(Repair))
    with pytest.raises(TypeError):
        Repair(frozenset())
    text = "Repair(retained=frozenset({2, 4, 5, 6}), deleted=frozenset({1, 3}))"
    for r in (s_repairs(dstar, kq)[1], built):
        with pytest.raises(AttributeError) as missing:
            r.other
        assert str(missing.value) == "'Repair' object has no attribute 'other'"
    for r in (listed, built):
        assert repr(r) == text
        for name in ("retained", "deleted", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, frozenset())
        with pytest.raises(FrozenInstanceError):
            del r.deleted
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert twin == r and type(twin) is Repair
        by_name = by_place = None
        match r:
            case Repair(retained=kept, deleted=gone):
                by_name = (kept, gone)
        match r:
            case Repair(kept, gone):
                by_place = (kept, gone)
        assert by_name == by_place == (built.retained, built.deleted)
        assert dataclasses.is_dataclass(r)
        assert [f.name for f in dataclasses.fields(r)] == ["retained", "deleted"]
        assert dataclasses.asdict(r) == {
            "retained": built.retained,
            "deleted": built.deleted,
        }
        assert dataclasses.astuple(r) == (built.retained, built.deleted)
        assert dataclasses.replace(r) == built
        emptied = dataclasses.replace(r, deleted=frozenset())
        assert emptied == Repair(built.retained, frozenset())
    assert Repair(retained=built.retained, deleted=built.deleted) == built
    assert Repair(built.retained, built.deleted).retained is built.retained


def _retained_checked(inst, repairs):
    for r in repairs:
        assert r.retained == inst.tids - r.deleted
        assert r.retained is r.retained
    return repairs


def _fd_keys(k, extra=()):
    """k keys with two values each under `fd T: 1 -> 2.`, the first key's
    first tuple exogenous, k+1 clean keys, then the extra facts."""
    facts = ["@exo T(k0,a0)."] + [f"T(k{i},a{i})." for i in range(1, k)]
    facts += [f"T(k{i},b{i})." for i in range(k)]
    facts += [f"T(c{i},v)." for i in range(k + 1)]
    inst = load_instance("\n".join(facts + list(extra)))
    return inst, parse_constraints("fd T: 1 -> 2.", inst)


def test_retained_is_every_tid_but_the_deleted_on_corpus():
    checked = 0
    for inst, q in corpus(200):
        cs = negate_query(q)
        try:
            listed = _retained_checked(inst, s_repairs(inst, cs))
        except IrreparableError:
            continue
        _retained_checked(inst, c_repairs(inst, cs))
        checked += len(listed)
    assert checked > 200


@pytest.mark.parametrize("k", range(13))
def test_retained_is_every_tid_but_the_deleted_on_fd_keys(k):
    inst, cs = _fd_keys(k)
    assert len(_retained_checked(inst, s_repairs(inst, cs))) == 2 ** max(k - 1, 0)
    _retained_checked(inst, c_repairs(inst, cs))


@pytest.mark.parametrize(
    "hard",
    [
        "R[1] <= S[1].",
        ":- S(x), S(y), x != y.",
        "S[1] <= R[2].",
        "R[1] <= S[1].\n:- R(x,y), R(y,x).",
    ],
)
def test_retained_is_every_tid_but_the_deleted_under_hard_constraints(
    dstar, kq, hard
):
    hard = parse_hard_constraints(hard)
    _retained_checked(dstar, s_repairs(dstar, kq, hard))
    _retained_checked(dstar, c_repairs(dstar, kq, hard))


@pytest.mark.parametrize("hard", ["T[2] <= A[1].", ":- T(x,y), B(y)."])
def test_retained_on_fd_keys_under_hard_constraints(hard):
    # A holds every value but b0 and b2..b5; B holds b3 and b4
    extra = [f"@exo A({v})." for v in ("a0", "a1", "a2", "a3", "a4", "a5", "b1", "v")]
    extra += ["@exo B(b3).", "@exo B(b4)."]
    inst, cs = _fd_keys(6, extra)
    kept = _retained_checked(inst, s_repairs(inst, cs, parse_hard_constraints(hard)))
    assert 0 < len(kept) < 2**5
    _retained_checked(inst, c_repairs(inst, cs, parse_hard_constraints(hard)))


def test_s_repairs_memory_peak_on_many_repairs():
    """2048 S-repairs of 203 facts, the shape of the fd-repairs benchmark's
    largest input: 11 conflicting keys (6 pairs, 5 stars) under two FDs and
    176 clean keys. Each repair holds its deletion set, not a copy of the
    other 190-odd tids, so the listing peaks near 1.7 MB, where retained
    sets built for every repair would take about 19 MB."""
    rows = [("a0", "b0", "c0"), ("a1", "b0", "c1")]
    star = [("a1", "b0", "c0"), ("a0", "b0", "c1"), ("a0", "b0", "c2")]
    facts = [
        f"T(k{i},{a},{b},{c})." for i in range(11) for a, b, c in (rows if i < 6 else star)
    ]
    facts += [f"T(c{i},v,v,v)." for i in range(176)]
    inst = load_instance("\n".join(facts))
    cs = parse_constraints("fd T: 1 -> 2.\nfd T: 1 -> 3.", inst)
    assert len(inst) == 203
    tracemalloc.start()
    try:
        found = s_repairs(inst, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 2048
    assert peak < 6_000_000, f"s_repairs peaked at {peak / 1e6:.1f} MB"
