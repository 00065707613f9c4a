from fractions import Fraction

import pytest

from whydb import (
    ArityMismatchError,
    OpenQueryError,
    OracleGuardError,
    brute_causes,
    brute_causes_from_repairs,
    brute_repairs,
    brute_responsibility,
    load_instance,
    negate_query,
    parse_constraints,
    parse_hard_constraints,
    parse_query,
)

from conftest import D1_ATOMS, D2_ATOMS, D3_ATOMS


def atoms(inst, tids):
    return {inst.fact(t).atom_text() for t in tids}


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: brute_causes(load_instance("S(a)."), parse_query("q(x) :- S(x).")),
            OpenQueryError,
            "requires a boolean query",
            id="brute-causes-open",
        ),
        pytest.param(
            lambda: brute_causes_from_repairs(
                load_instance("S(a)."), parse_query("q(x) :- S(x).")
            ),
            OpenQueryError,
            "requires a boolean query",
            id="brute-causes-from-repairs-open",
        ),
        pytest.param(
            lambda: brute_repairs(load_instance("S(a)."), parse_constraints(":- S(x,y).")),
            ArityMismatchError,
            "has arity 2, facts use 1",
            id="arity",
        ),
    ],
)
def test_oracle_rejects_what_it_cannot_answer(call, error, message):
    # the oracle checks its own inputs: it shares no code with the main path
    with pytest.raises(error, match=message):
        call()


def test_brute_repairs_running_example(dstar, qstar):
    reps = brute_repairs(dstar, negate_query(qstar))
    assert [atoms(dstar, r.retained) for r in reps] == [D1_ATOMS, D2_ATOMS, D3_ATOMS]
    assert [r.c_repair for r in reps] == [True, False, False]


def test_brute_repairs_example_two(d2star, k12):
    reps = brute_repairs(d2star, k12)
    assert [atoms(d2star, r.retained) for r in reps] == [
        {"P(e)", "Q(a,b)", "R(a,c)"},
        {"P(a)", "P(e)"},
    ]
    assert [r.c_repair for r in reps] == [True, False]


def test_brute_repairs_consistent_instance():
    inst = load_instance("P(a). Q(b,c).")
    cs = parse_constraints(":- P(x), Q(x,y).")
    reps = brute_repairs(inst, cs)
    assert len(reps) == 1
    assert reps[0].deleted == frozenset()
    assert reps[0].c_repair


def test_brute_repairs_all_exogenous_violation(qstar):
    inst = load_instance("@exo S(a3). @exo R(a3,a3).")
    assert brute_repairs(inst, negate_query(qstar)) == []


def test_brute_causes_running_example(dstar, qstar):
    reports = brute_causes(dstar, qstar)
    assert [(r.tid, r.responsibility) for r in reports] == [
        (6, Fraction(1)),
        (1, Fraction(1, 2)),
        (3, Fraction(1, 2)),
        (4, Fraction(1, 2)),
    ]
    by_tid = {r.tid: r for r in reports}
    assert by_tid[1].minimal_contingency_sets == (frozenset({3}),)
    assert by_tid[6].is_counterfactual and by_tid[6].is_most_responsible


def test_brute_causes_query_false(qstar):
    assert brute_causes(load_instance("S(a)."), qstar) == []


def test_brute_causes_singleton():
    inst = load_instance("S(a).")
    q = parse_query("q :- S(x).")
    reports = brute_causes(inst, q)
    assert len(reports) == 1
    assert reports[0].tid == 1
    assert reports[0].responsibility == Fraction(1)
    assert reports[0].minimal_contingency_sets == (frozenset(),)


def test_brute_responsibility_values(dstar, qstar):
    assert brute_responsibility(dstar, qstar, 4) == Fraction(1, 2)
    assert brute_responsibility(dstar, qstar, 5) == Fraction(0)
    assert brute_responsibility(load_instance("S(a)."), qstar, 1) == Fraction(0)


def test_guard_rejects_large_instances():
    text = " ".join(f"P(c{i})." for i in range(19))
    inst = load_instance(text)
    q = parse_query("q :- P(x).")
    with pytest.raises(OracleGuardError):
        brute_causes(inst, q)
    with pytest.raises(OracleGuardError):
        brute_repairs(inst, negate_query(q))


def test_guard_can_be_lowered_not_raised():
    text = " ".join(f"P(c{i})." for i in range(5))
    inst = load_instance(text)
    q = parse_query("q :- P(x).")
    with pytest.raises(OracleGuardError):
        brute_causes(inst, q, guard=4)
    # asking for more than 18 still caps at 18
    big = load_instance(" ".join(f"P(c{i})." for i in range(19)))
    with pytest.raises(OracleGuardError):
        brute_causes(big, q, guard=100)


def test_both_oracle_routes_agree(dstar, qstar):
    direct = brute_causes(dstar, qstar)
    via_repairs = brute_causes_from_repairs(dstar, qstar)
    assert [
        (r.tid, r.responsibility, r.minimal_contingency_sets) for r in direct
    ] == [(r.tid, r.responsibility, r.minimal_contingency_sets) for r in via_repairs]


def test_brute_repairs_with_hard_filter(dstar, qstar):
    hard = parse_hard_constraints("R[1] <= S[1].")
    reps = brute_repairs(dstar, negate_query(qstar), hard)
    assert [sorted(r.deleted) for r in reps] == [[1, 3]]
    assert reps[0].c_repair


def test_brute_repairs_hard_position_out_of_range():
    # the one repair keeps S(a), which has no position 2
    inst = load_instance("S(a).")
    cs = parse_constraints(":- S(x), S(y), x != y.")
    hard = parse_hard_constraints("S[1] <= S[2].")
    with pytest.raises(ArityMismatchError, match=r"^position 2 out of range for S/1$"):
        brute_repairs(inst, cs, hard)
