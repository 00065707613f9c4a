from fractions import Fraction

import pytest

from whydb import (
    Fact,
    Instance,
    IrreparableError,
    OpenQueryError,
    PreconditionError,
    UnknownTidError,
    actual_causes,
    brute_causes,
    causes_under_ics,
    contingency_sets,
    counterfactual_causes,
    dif_c,
    dif_s,
    eval_bcq,
    load_instance,
    most_responsible_causes,
    parse_hard_constraints,
    parse_query,
    responsibility,
)

from conftest import QSTAR_TEXT
from corpus import corpus

HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_dif_s_running_example(dstar, qstar):
    assert [sorted(d.deleted) for d in dif_s(dstar, qstar, 1)] == [[1, 3]]
    assert all(d.source == "s_repair" for d in dif_s(dstar, qstar, 1))


def test_dif_s_non_cause(dstar, qstar):
    assert dif_s(dstar, qstar, 2) == []


def test_dif_s_query_false():
    inst = load_instance("S(a). R(b,c).")
    q = parse_query(QSTAR_TEXT)
    assert not eval_bcq(inst, q)
    assert dif_s(inst, q, 1) == []


def test_dif_c_running_example(dstar, qstar):
    assert [sorted(d.deleted) for d in dif_c(dstar, qstar, 6)] == [[6]]
    assert dif_c(dstar, qstar, 1) == []


def test_dif_unknown_tid(dstar, qstar):
    with pytest.raises(UnknownTidError):
        dif_s(dstar, qstar, 99)


def test_actual_causes_running_example(dstar, qstar):
    reports = actual_causes(dstar, qstar)
    assert [(r.tid, r.responsibility) for r in reports] == [
        (6, ONE),
        (1, HALF),
        (3, HALF),
        (4, HALF),
    ]
    by_tid = {r.tid: r for r in reports}
    assert by_tid[6].is_counterfactual and by_tid[6].is_most_responsible
    assert by_tid[6].minimal_contingency_sets == (frozenset(),)
    assert by_tid[1].minimal_contingency_sets == (frozenset({3}),)
    assert by_tid[3].minimal_contingency_sets == (frozenset({1}), frozenset({4}))
    assert not any(
        r.is_counterfactual or r.is_most_responsible for r in reports if r.tid != 6
    )
    assert {2, 5}.isdisjoint(by_tid)


def test_actual_causes_query_false():
    inst = load_instance("S(a).")
    assert actual_causes(inst, parse_query(QSTAR_TEXT)) == []


def test_actual_causes_open_query(dstar):
    with pytest.raises(OpenQueryError):
        actual_causes(dstar, parse_query("q(x) :- S(x)."))


def test_contingency_sets_running_example(dstar, qstar):
    assert contingency_sets(dstar, qstar, 1) == [frozenset({3})]
    assert contingency_sets(dstar, qstar, 6) == [frozenset()]
    assert contingency_sets(dstar, qstar, 5) == []


def test_contingency_sets_exogenous_rejected(qstar):
    inst = load_instance(
        "R(a4,a3). R(a2,a1). R(a3,a3). S(a4). @exo S(a2). S(a3)."
    )
    with pytest.raises(PreconditionError):
        contingency_sets(inst, qstar, 5)


def test_contingency_definition_holds(dstar, qstar):
    for report in actual_causes(dstar, qstar):
        for gamma in report.minimal_contingency_sets:
            assert eval_bcq(dstar.without(gamma), qstar)
            assert not eval_bcq(dstar.without(gamma | {report.tid}), qstar)


def test_responsibility_running_example(dstar, qstar):
    assert responsibility(dstar, qstar, 6) == ONE
    assert responsibility(dstar, qstar, 3) == HALF
    assert responsibility(dstar, qstar, 4) == HALF
    assert responsibility(dstar, qstar, 2) == Fraction(0)


def test_responsibility_is_exact_rational(dstar, qstar):
    value = responsibility(dstar, qstar, 6)
    assert isinstance(value, Fraction)
    assert not isinstance(value, float)


def test_counterfactual_causes(dstar, qstar):
    assert counterfactual_causes(dstar, qstar) == [6]


def test_counterfactual_none_when_query_false():
    inst = load_instance("S(a).")
    assert counterfactual_causes(inst, parse_query(QSTAR_TEXT)) == []


def test_counterfactual_none_with_disjoint_witnesses(qstar):
    inst = load_instance("S(a). R(a,a). S(b). R(b,b).")
    assert eval_bcq(inst, qstar)
    assert counterfactual_causes(inst, qstar) == []
    # every tuple is still an actual cause at responsibility 1/2
    assert {r.responsibility for r in actual_causes(inst, qstar)} == {HALF}


def test_most_responsible_causes(dstar, qstar):
    assert most_responsible_causes(dstar, qstar) == [6]


def test_most_responsible_is_argmax(dstar, qstar):
    reports = actual_causes(dstar, qstar)
    top = max(r.responsibility for r in reports)
    assert most_responsible_causes(dstar, qstar) == sorted(
        r.tid for r in reports if r.responsibility == top
    )


def test_most_responsible_example_two(d2star):
    q = parse_query("q :- P(x), Q(x,y).\nq :- P(x), R(x,y).")
    assert most_responsible_causes(d2star, q) == [1]


def test_causes_under_referential_constraint(dstar, qstar):
    hard = parse_hard_constraints("R[1] <= S[1].")
    reports = causes_under_ics(dstar, qstar, hard)
    assert [(r.tid, r.responsibility) for r in reports] == [(1, HALF), (3, HALF)]
    assert all(r.is_most_responsible for r in reports)
    # S(a3) is no longer a cause at all once the dangling-reference
    # repairs are filtered away
    assert 6 not in {r.tid for r in reports}
    assert responsibility(dstar, qstar, 6) == ONE  # unfiltered baseline


def test_causes_under_empty_ics_match_plain(dstar, qstar):
    assert causes_under_ics(dstar, qstar, []) == actual_causes(dstar, qstar)


def test_causes_under_violated_ics_rejected(dstar, qstar):
    hard = parse_hard_constraints("S[1] <= R[2].")
    with pytest.raises(PreconditionError):
        causes_under_ics(dstar, qstar, hard)


def test_exogenous_tuples_never_reported(qstar):
    inst = load_instance(
        "R(a4,a3). R(a2,a1). R(a3,a3). S(a4). S(a2). @exo S(a3)."
    )
    reports = actual_causes(inst, qstar)
    assert [(r.tid, r.responsibility) for r in reports] == [
        (1, HALF),
        (3, HALF),
        (4, HALF),
    ]
    assert responsibility(inst, qstar, 6) == Fraction(0)


def test_outputs_invariant_under_tid_relabeling(dstar, qstar):
    relabeled = Instance(
        Fact(f.predicate, f.args, f.tid * 10, f.exogenous) for f in dstar.facts
    )
    original = actual_causes(dstar, qstar)
    scaled = actual_causes(relabeled, qstar)
    assert [(r.tid * 10, r.responsibility) for r in original] == [
        (r.tid, r.responsibility) for r in scaled
    ]
    assert [
        {t * 10 for t in g} for r in original for g in r.minimal_contingency_sets
    ] == [set(g) for r in scaled for g in r.minimal_contingency_sets]


def test_responsibility_formula_invariant(dstar, qstar):
    for r in actual_causes(dstar, qstar):
        smallest = min(len(g) for g in r.minimal_contingency_sets)
        assert r.responsibility == Fraction(1, 1 + smallest)


def test_minimum_contingency_sets_helper(dstar, qstar):
    report = next(r for r in actual_causes(dstar, qstar) if r.tid == 3)
    assert report.minimum_contingency_sets() == (frozenset({1}), frozenset({4}))


def test_counterfactual_matches_oracle_on_corpus():
    exogenous_witness = 0
    for inst, q in corpus(200):
        want = sorted(r.tid for r in brute_causes(inst, q) if r.is_counterfactual)
        assert counterfactual_causes(inst, q) == want
        try:
            actual_causes(inst, q)
        except IrreparableError:
            exogenous_witness += 1
            assert want == []
    assert exogenous_witness > 0  # witnesses made of exogenous tuples only
