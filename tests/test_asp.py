from pathlib import Path

import pytest

from whydb import (
    EmitError,
    emit_causality_program,
    emit_repair_program,
    eval_bcq,
    load_instance,
    negate_query,
    parse_constraints,
    parse_hard_constraints,
    parse_query,
)
from whydb.asp import AspDialect, CausalityOptions

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def kq(qstar):
    return negate_query(qstar)


def test_repair_program_facts_in_tid_order(dstar, kq):
    text = emit_repair_program(dstar, kq, AspDialect.CORE_DISJUNCTIVE).text
    facts = [line for line in text.splitlines() if line.endswith(").") and ":-" not in line and not line.startswith("%")]
    assert facts == [
        "r(1,a4,a3).",
        "r(2,a2,a1).",
        "r(3,a3,a3).",
        "s(4,a4).",
        "s(5,a2).",
        "s(6,a3).",
    ]


def test_repair_program_disjunctive_rule(dstar, kq):
    text = emit_repair_program(dstar, kq, AspDialect.CORE_DISJUNCTIVE).text
    assert (
        "s_x(T1,X,d) | r_x(T2,X,Y,d) | s_x(T3,Y,d) :- s(T1,X), r(T2,X,Y), s(T3,Y)."
        in text
    )
    for stays in [
        "s_x(T1,X,s) :- s(T1,X), not s_x(T1,X,d).",
        "r_x(T2,X,Y,s) :- r(T2,X,Y), not r_x(T2,X,Y,d).",
        "s_x(T3,Y,s) :- s(T3,Y), not s_x(T3,Y,d).",
    ]:
        assert stays in text


def test_repair_program_predicate_map(dstar, kq):
    program = emit_repair_program(dstar, kq, AspDialect.CORE_DISJUNCTIVE)
    assert program.predicate_map == {"R": "r_x", "S": "s_x"}


def test_normalized_dialect_has_no_disjunction(dstar, kq):
    text = emit_repair_program(dstar, kq, AspDialect.CORE_NORMALIZED).text
    assert " | " not in text and " v " not in text
    assert (
        "s_x(T1,X,d) :- s(T1,X), r(T2,X,Y), s(T3,Y), "
        "not r_x(T2,X,Y,d), not s_x(T3,Y,d)." in text
    )
    assert (
        "r_x(T2,X,Y,d) :- s(T1,X), r(T2,X,Y), s(T3,Y), "
        "not s_x(T1,X,d), not s_x(T3,Y,d)." in text
    )


def test_fd_rule_shape(dstar):
    cs = parse_constraints("fd R: 1,2 -> 3.", arities={"R": 4})
    inst = load_instance("R(a,b,c,d1). R(a,b,e,d2).")
    text = emit_repair_program(inst, cs, AspDialect.CORE_DISJUNCTIVE).text
    assert (
        "r_x(T1,X,Y,Z1,V,d) | r_x(T2,X,Y,Z2,W,d) :- "
        "r(T1,X,Y,Z1,V), r(T2,X,Y,Z2,W), Z1 != Z2." in text
    )


def test_empty_instance_emits_rules_only(kq):
    text = emit_repair_program(load_instance(""), kq, AspDialect.CORE_DISJUNCTIVE).text
    assert "% facts" not in text
    assert ":-" in text


def test_fact_count_matches_instance(dstar, kq):
    text = emit_repair_program(dstar, kq, AspDialect.EXTENDED).text
    fact_lines = [
        line
        for line in text.splitlines()
        if not line.startswith("%") and ":-" not in line and line
    ]
    assert len(fact_lines) == len(dstar)


def test_stays_rules_deduplicated_across_constraints():
    inst = load_instance("P(a). Q(a,b). R(a,c).")
    cs = parse_constraints(":- P(x), Q(x,y).\n:- P(x), R(x,y).")
    text = emit_repair_program(inst, cs, AspDialect.CORE_DISJUNCTIVE).text
    stays_p = "p_x(T1,X,s) :- p(T1,X), not p_x(T1,X,d)."
    assert text.count(stays_p) == 1


def test_emission_deterministic(dstar, qstar):
    opts = CausalityOptions(
        contingency_union=True, responsibility_rules=True, weak_constraints=True
    )
    first = emit_causality_program(dstar, qstar, AspDialect.EXTENDED, opts)
    second = emit_causality_program(dstar, qstar, AspDialect.EXTENDED, opts)
    assert first.text == second.text


def test_cause_rules_cover_all_predicate_pairs(dstar, qstar):
    text = emit_causality_program(
        dstar, qstar, AspDialect.EXTENDED, CausalityOptions()
    ).text
    assert "cause(T,Tp) :- s_x(T,X,d), r_x(Tp,U,V,d)." in text
    assert "cause(T,Tp) :- s_x(T,X,d), s_x(Tp,U,d), T != Tp." in text
    assert "cause(T,Tp) :- r_x(T,X,Y,d), s_x(Tp,U,d)." in text
    # both deleted tuples of a repair may come from the same non-self-join
    # predicate, so the homogeneous pair is emitted too
    assert "cause(T,Tp) :- r_x(T,X,Y,d), r_x(Tp,U,V,d), T != Tp." in text


def test_answer_projection_rules(dstar, qstar):
    text = emit_causality_program(
        dstar, qstar, AspDialect.CORE_DISJUNCTIVE, CausalityOptions()
    ).text
    assert "ans(T) :- s_x(T,X,d)." in text
    assert "ans(T) :- r_x(T,X,Y,d)." in text


def test_weak_constraints_per_predicate(dstar, qstar):
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.EXTENDED,
        CausalityOptions(weak_constraints=True),
    ).text
    assert ":~ r(T,X,Y), r_x(T,X,Y,d). [1:1]" in text
    assert ":~ s(T,X), s_x(T,X,d). [1:1]" in text


def test_weak_constraints_core_surface(dstar, qstar):
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.CORE_DISJUNCTIVE,
        CausalityOptions(weak_constraints=True),
    ).text
    assert ":~ s(T,X), s_x(T,X,d). [1@1, T]" in text


def test_contingency_union_rules(dstar, qstar):
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.EXTENDED,
        CausalityOptions(contingency_union=True),
    ).text
    assert "con(T,{Tp}) :- cause(T,Tp)." in text
    assert (
        "con(T,#union(C1,C2)) :- con(T,C1), con(T,C2), "
        "#member(M,C1), not #member(M,C2)." in text
    )


def test_responsibility_rules_as_documented(dstar, qstar):
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.EXTENDED,
        CausalityOptions(contingency_union=True, responsibility_rules=True),
    ).text
    assert "pre_rho(T,N) :- #count{Tp : con(T,Tp)} = N." in text
    assert "rho(T,M) :- M * (pre_rho(T,M) + 1) = 1." in text
    assert "integer-only solvers cannot represent 1/k" in text


def test_hard_constraint_safe_form(dstar, qstar):
    hard = tuple(parse_hard_constraints("R[1] <= S[1]."))
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.CORE_DISJUNCTIVE,
        CausalityOptions(hard_constraints=hard),
    ).text
    assert "aux(X) :- s_x(Tp,X,s)." in text
    assert ":- r_x(T,X,Y,s), not aux(X)." in text


def test_dc_hard_constraint_over_retained(dstar, qstar):
    hard = tuple(parse_hard_constraints(":- S(x), S(y), x != y."))
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.CORE_DISJUNCTIVE,
        CausalityOptions(hard_constraints=hard),
    ).text
    assert ":- s_x(T1,X,s), s_x(T2,Y,s), X != Y." in text


def test_extended_blocks_require_extended_dialect(dstar, qstar):
    with pytest.raises(EmitError):
        emit_causality_program(
            dstar,
            qstar,
            AspDialect.CORE_DISJUNCTIVE,
            CausalityOptions(contingency_union=True),
        )
    with pytest.raises(EmitError):
        emit_causality_program(
            dstar,
            qstar,
            AspDialect.EXTENDED,
            CausalityOptions(responsibility_rules=True),
        )


def test_cause_rules_can_be_disabled(dstar, qstar):
    text = emit_causality_program(
        dstar,
        qstar,
        AspDialect.CORE_DISJUNCTIVE,
        CausalityOptions(cause_rules=False),
    ).text
    assert "cause(" not in text
    assert "ans(T)" in text


def test_nickname_collision_rejected(qstar):
    inst = load_instance("S(a). S_x(b).")
    with pytest.raises(EmitError):
        emit_repair_program(
            inst, parse_constraints(":- S(x), S_x(x)."), AspDialect.CORE_DISJUNCTIVE
        )


def test_case_collision_rejected():
    inst = load_instance("S(a). s(b).")
    with pytest.raises(EmitError):
        emit_repair_program(inst, parse_constraints(""), AspDialect.CORE_DISJUNCTIVE)


def test_reserved_name_collision_only_for_causality():
    inst = load_instance("Cause(a,b). S(a).")
    cs = parse_constraints(":- Cause(x,y), S(x).")
    # fine as a plain repair program
    emit_repair_program(inst, cs, AspDialect.CORE_DISJUNCTIVE)
    q = parse_query("q :- Cause(x,y), S(x).")
    with pytest.raises(EmitError):
        emit_causality_program(inst, q, AspDialect.CORE_DISJUNCTIVE, CausalityOptions())


def test_quoted_constants_in_facts():
    inst = load_instance("S(A4). S(9lives).")
    cs = parse_constraints(":- S(x), S(y), x != y.")
    text = emit_repair_program(inst, cs, AspDialect.CORE_DISJUNCTIVE).text
    assert 's(1,"A4").' in text
    assert 's(2,"9lives").' in text


def test_constants_asp_cannot_read_bare_are_quoted():
    # ASP-Core-2 numerals have no leading zeros, and `not` is a keyword: read
    # bare, 007 would join with 7 where whydb finds no match
    inst = load_instance("S(007). R(7,a). S(a). S(not). S(0). S(10).")
    q = parse_query('q :- S(x), R(x,y), S(y).\nq :- S("007"), S("not").')
    assert not eval_bcq(inst, parse_query("q :- S(x), R(x,y), S(y)."))
    text = emit_causality_program(inst, q, AspDialect.CORE_DISJUNCTIVE).text
    for fact in ['s(1,"007").', "r(2,7,a).", "s(3,a).", 's(4,"not").', "s(5,0).", "s(6,10)."]:
        assert fact in text.splitlines()
    assert 's_x(T1,"007",d) | s_x(T2,"not",d) :- s(T1,"007"), s(T2,"not").' in text


def test_golden_repair_program(dstar, kq):
    expected = (GOLDEN / "repair_dstar_core_disjunctive.lp").read_text()
    got = emit_repair_program(dstar, kq, AspDialect.CORE_DISJUNCTIVE).text
    assert got == expected


def test_golden_causality_program(dstar, qstar):
    expected = (GOLDEN / "causality_dstar_extended.lp").read_text()
    opts = CausalityOptions(
        contingency_union=True, responsibility_rules=True, weak_constraints=True
    )
    got = emit_causality_program(dstar, qstar, AspDialect.EXTENDED, opts).text
    assert got == expected


def test_golden_causality_with_hard_constraint(dstar, qstar):
    expected = (GOLDEN / "causality_dstar_hard_core.lp").read_text()
    hard = tuple(parse_hard_constraints("R[1] <= S[1]."))
    got = emit_causality_program(
        dstar,
        qstar,
        AspDialect.CORE_DISJUNCTIVE,
        CausalityOptions(hard_constraints=hard),
    ).text
    assert got == expected
