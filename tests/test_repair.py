import pytest

from whydb import (
    DC,
    ArityMismatchError,
    IrreparableError,
    ParseError,
    Repair,
    ReferentialConstraint,
    UnknownTidError,
    brute_repairs,
    c_repairs,
    classify_subset,
    load_instance,
    negate_query,
    parse_constraints,
    parse_hard_constraints,
    s_repairs,
    violations,
)
from whydb.oracle import _consistent
from whydb.repair import (
    C_REPAIR,
    CONSISTENT_NOT_MAXIMAL,
    INCONSISTENT,
    S_REPAIR,
    _minimal_hitting_sets,
)

from conftest import D1_ATOMS, D2_ATOMS, D3_ATOMS, retained_atoms
from corpus import corpus


@pytest.fixture
def kq(qstar):
    return negate_query(qstar)


def test_minimal_hitting_sets_basic():
    edges = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    found = set(_minimal_hitting_sets(edges))
    assert found == {frozenset({2, 3}), frozenset({2, 4}), frozenset({1, 3})}


def test_minimal_hitting_sets_no_edges():
    assert _minimal_hitting_sets([]) == [frozenset()]


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
