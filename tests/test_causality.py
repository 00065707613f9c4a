import copy
import dataclasses
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from whydb import (
    CauseReport,
    Fact,
    Instance,
    IrreparableError,
    OpenQueryError,
    PreconditionError,
    UnknownTidError,
    actual_causes,
    brute_causes,
    brute_causes_from_repairs,
    brute_repairs,
    c_repairs,
    causes_under_ics,
    contingency_sets,
    counterfactual_causes,
    dif_c,
    dif_s,
    eval_bcq,
    load_instance,
    most_responsible_causes,
    negate_query,
    parse_hard_constraints,
    parse_query,
    responsibility,
    s_repairs,
)
from whydb.oracle import _hard_ok

from conftest import QSTAR_TEXT, load_bench
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


def _unread(report):
    return "minimal_contingency_sets" not in vars(report)


def test_cause_report_contract_holds_for_listed_and_built_reports(dstar, qstar):
    """A report from `actual_causes`, which fills in its contingency sets on
    first read, and one built from its values act as one frozen dataclass
    value."""
    sets = (frozenset({1}), frozenset({4}))
    built = CauseReport(3, HALF, sets, False, False)
    values = (3, HALF, sets, False, False)

    def listed():
        return next(r for r in actual_causes(dstar, qstar) if r.tid == 3)

    # copies of listed reports whose contingency sets nothing has read yet
    unread = [listed() for _ in range(4)]
    assert all(map(_unread, unread))
    twins = [
        pickle.loads(pickle.dumps(unread[0])),
        copy.copy(unread[1]),
        copy.deepcopy(unread[2]),
    ]
    for twin, original in zip(twins, unread):
        assert twin == built == original and type(twin) is CauseReport
    assert unread[3].minimum_contingency_sets() == sets
    report = listed()
    assert report == built and built == report
    assert not (report != built)
    assert hash(report) == hash(built) == hash(values)
    assert len({report, built}) == 1
    assert report != CauseReport(3, HALF, sets[:1], False, False)
    assert CauseReport.__eq__(report, values) is NotImplemented
    text = (
        "CauseReport(tid=3, responsibility=Fraction(1, 2), "
        "minimal_contingency_sets=(frozenset({1}), frozenset({4})), "
        "is_counterfactual=False, is_most_responsible=False)"
    )
    names = [
        "tid",
        "responsibility",
        "minimal_contingency_sets",
        "is_counterfactual",
        "is_most_responsible",
    ]
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(built))
    assert listed()._differences == built._differences
    for r in (listed(), built):
        assert repr(r) == text
        with pytest.raises(AttributeError) as missing:
            r.other
        assert str(missing.value) == "'CauseReport' object has no attribute 'other'"
        for name in (*names, "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, None)
        for name in ("tid", "minimal_contingency_sets"):
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert twin == r and type(twin) is CauseReport
        by_name = by_place = None
        match r:
            case CauseReport(tid=t, responsibility=rho, minimal_contingency_sets=g):
                by_name = (t, rho, g)
        match r:
            case CauseReport(t, rho, g, False, False):
                by_place = (t, rho, g)
        assert by_name == by_place == values[:3]
        assert dataclasses.is_dataclass(r)
        assert [f.name for f in dataclasses.fields(r)] == names
        assert dataclasses.asdict(r) == dict(zip(names, values))
        assert dataclasses.astuple(r) == values
        assert dataclasses.replace(r) == built
        pared = dataclasses.replace(r, minimal_contingency_sets=sets[:1])
        assert pared == CauseReport(3, HALF, sets[:1], False, False)
    assert CauseReport(*values).minimal_contingency_sets is sets


def test_listed_reports_share_the_s_repair_differences(dstar, qstar):
    """Causes that share an S-repair difference hold the one frozenset
    `s_repairs` listed, and build each contingency set on first read."""
    reports = {r.tid: r for r in actual_causes(dstar, qstar)}
    assert all(map(_unread, reports.values()))
    one, three = reports[1], reports[3]
    assert vars(three)["_differences"] == (frozenset({1, 3}), frozenset({3, 4}))
    assert vars(one)["_differences"][0] is vars(three)["_differences"][0]
    assert three.minimal_contingency_sets == (frozenset({1}), frozenset({4}))
    assert three.minimal_contingency_sets is three.minimal_contingency_sets
    assert _unread(one)
    # the smallest sets are made from the differences, not from every set
    built = CauseReport(1, one.responsibility, (frozenset({3}),), False, False)
    assert one.minimum_contingency_sets() == built.minimum_contingency_sets()
    assert _unread(one)


def test_actual_causes_memory_peak_on_chain_42():
    """The benchmark's chain-42 instance has 1150 S-repairs and 10 060
    contingency sets. Each cause holds the differences `s_repairs` listed,
    not a new set per (difference, tuple) pair, so the call peaks near
    1 MB, where building every contingency set takes about 8 MB."""
    facts = load_bench("chain_causes").instance(42)
    inst = load_instance("".join(f"{p}({','.join(a)}).\n" for p, a in facts))
    q = parse_query(QSTAR_TEXT)
    tracemalloc.start()
    try:
        reports = actual_causes(inst, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(r.minimal_contingency_sets) for r in reports) == 10_060
    assert peak < 3_000_000, f"actual_causes peaked at {peak / 1e6:.1f} MB"


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


def test_per_tuple_views_match_the_reports_on_corpus():
    # contingency_sets and responsibility read the S-repair differences in
    # their sorted order; the reports' order is checked against the oracle
    checked = 0
    for inst, q in corpus(200):
        try:
            reports = {r.tid: r for r in actual_causes(inst, q)}
        except IrreparableError:
            continue
        for t in sorted(inst.endogenous_tids):
            report = reports.get(t)
            sets = list(report.minimal_contingency_sets) if report else []
            assert contingency_sets(inst, q, t) == sets
            assert responsibility(inst, q, t) == (
                report.responsibility if report else 0
            )
            checked += len(sets) > 1
    assert checked > 0  # some tuple has several contingency sets to order


# hard-constraint sets over the corpus predicates P/1, Q/2 and R/3
CORPUS_HARD = {
    "referential": "Q[1] <= P[1].",
    "dc": ":- Q(x,y), Q(y,x), x != y.",
    "mixed": "R[1,2] <= Q[1,2].\n:- P(x), Q(x,x).",
    # an instance that satisfies a DC has every sub-instance satisfy it, so
    # `causes_under_ics` lets only the referential constraint filter
    "dc-symmetric+ref": ":- Q(x,y), Q(y,x), x != y.\nQ[1] <= P[1].",
    "dc-loop+ref": ":- P(x), Q(x,x).\nQ[1] <= P[1].",
    "dc-join+ref": ":- R(x,y,z), P(z).\nQ[1] <= P[1].",
    "dc-fd+ref": ":- Q(x,y), Q(x,z), y != z.\nQ[1] <= P[1].",
}


def _deleted(repairs):
    return [r.deleted for r in repairs]


def _or_error(call):
    try:
        return call()
    except (PreconditionError, IrreparableError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(CORPUS_HARD))
def test_hard_constraint_route_matches_oracle_on_corpus(name):
    """s_repairs, c_repairs and causes_under_ics under hard constraints
    agree with the brute-force repair route, errors included: a violation
    of exogenous tuples alone leaves the oracle no repair at all, and an
    instance that breaks a hard constraint is refused before any search."""
    hard = parse_hard_constraints(CORPUS_HARD[name])
    filtered = causes = 0
    for inst, q in corpus(200):
        cs = negate_query(q)
        unfiltered = brute_repairs(inst, cs)
        irreparable = not unfiltered
        want = brute_repairs(inst, cs, hard)
        if irreparable:
            want_s = want_c = IrreparableError
        else:
            want_s = _deleted(want)
            want_c = [r.deleted for r in want if r.c_repair]
        assert _or_error(lambda: _deleted(s_repairs(inst, cs, hard))) == want_s
        assert _or_error(lambda: _deleted(c_repairs(inst, cs, hard))) == want_c
        if not all(_hard_ok(inst.facts, h) for h in hard):
            want_causes = PreconditionError
        elif irreparable:
            want_causes = IrreparableError
        else:
            want_causes = brute_causes_from_repairs(inst, q, hard)
            causes += bool(want_causes)
        assert _or_error(lambda: causes_under_ics(inst, q, hard)) == want_causes
        filtered += len(want) < len(unfiltered)
    # the filter discards repairs, and causes survive it, on some instances
    assert filtered > 0 and causes > 0
