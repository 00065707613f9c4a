import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whydb import (
    ArityMismatchError,
    Fact,
    Instance,
    OpenQueryError,
    ParseError,
    SafetyError,
    answers,
    eval_bcq,
    fd_to_dc,
    load_instance,
    negate_query,
    parse_constraints,
    parse_query,
    violations,
)
from whydb.query import CQ, DC, FD, UCQ, Atom, ConstraintSet, ViolationEdge, Var, _plan

from conftest import DSTAR_TEXT, K12_TEXT, QSTAR_TEXT


def test_parse_bcq_structure():
    q = parse_query(QSTAR_TEXT)
    assert len(q.disjuncts) == 1
    cq = q.disjuncts[0]
    assert [a.predicate for a in cq.atoms] == ["S", "R", "S"]
    assert cq.atoms[1].terms == (Var("x"), Var("y"))
    assert cq.free_vars == ()
    assert q.is_boolean


def test_parse_ucq_two_rules():
    q = parse_query("q :- P(x), Q(x,y).\nq :- P(x), R(x,y).")
    assert len(q.disjuncts) == 2
    assert q.is_boolean


def test_parse_open_query():
    q = parse_query("q(x) :- S(x), R(x,y), S(y).")
    assert q.free_vars == ("x",)


def test_unsafe_inequality_variable():
    with pytest.raises(SafetyError):
        parse_query("q :- R(x,y), x != z.")


def test_unsafe_head_variable():
    with pytest.raises(SafetyError):
        parse_query("q(z) :- R(x,y).")


def test_mismatching_heads():
    with pytest.raises(ParseError, match="same head"):
        parse_query("q :- P(x).\np :- P(x).")


def test_rule_without_atoms():
    with pytest.raises(ParseError):
        parse_query("q :- .")


def test_parse_inequality_with_constant():
    q = parse_query('q :- R(x,y), x != "a4".')
    assert q.disjuncts[0].inequalities == ((Var("x"), "a4"),)


def test_parse_dc():
    cs = parse_constraints(":- P(x), Q(x,y).")
    assert len(cs) == 1
    assert [a.predicate for a in cs.dcs[0].body.atoms] == ["P", "Q"]


def test_constraint_set_iterates_its_dcs_in_order():
    cs = parse_constraints(":- P(x), Q(x,y). :- Q(x,x).")
    assert list(cs) == list(cs.dcs) and len(list(cs)) == 2
    assert [dc.body.atoms[0].predicate for dc in cs] == ["P", "Q"]


def test_parse_empty_constraints():
    cs = parse_constraints("")
    assert len(cs) == 0


def test_parse_fd_normalizes():
    cs = parse_constraints("fd R: 1,2 -> 3.", arities={"R": 4})
    assert cs.dcs[0] == fd_to_dc(FD("R", frozenset({1, 2}), 3), 4)
    assert cs.labels == ("fd R: 1,2 -> 3.",)


def test_parse_fd_needs_arity():
    with pytest.raises(ParseError, match="unknown arity"):
        parse_constraints("fd R: 1 -> 2.")


def test_parse_fd_position_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_constraints("fd R: 1 -> 5.", arities={"R": 4})


def test_fd_determined_inside_determinants_rejected():
    with pytest.raises(ParseError):
        parse_constraints("fd P: 1 -> 1.", arities={"P": 2})
    with pytest.raises(ValueError):
        FD("P", frozenset({1}), 1)


_PX = (Atom("P", (Var("x"),)),)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Var("X"), "bad variable name", id="var-name"),
        pytest.param(lambda: Atom("1P", ("a",)), "bad predicate name", id="atom-name"),
        pytest.param(lambda: Atom("P", ()), "at least one term", id="atom-no-terms"),
        pytest.param(lambda: Atom("P", ("a,b",)), "bad constant", id="atom-constant"),
        pytest.param(lambda: CQ(()), "at least one atom", id="cq-no-atoms"),
        pytest.param(lambda: UCQ(()), "at least one rule", id="ucq-no-rules"),
        pytest.param(
            lambda: UCQ((CQ(_PX, free_vars=("x",)), CQ(_PX))),
            "share the same head",
            id="ucq-heads",
        ),
        pytest.param(
            lambda: DC(CQ(_PX, free_vars=("x",))), "no free variables", id="dc-free"
        ),
        pytest.param(
            lambda: FD("P", frozenset(), 1), "at least one determinant", id="fd-none"
        ),
        pytest.param(
            lambda: ConstraintSet((DC(CQ(_PX)),), ("a", "b")),
            "one label per constraint",
            id="labels",
        ),
        pytest.param(
            lambda: fd_to_dc(FD("P", frozenset({1}), 2), 0),
            "arity must be positive",
            id="fd-to-dc-arity",
        ),
    ],
)
def test_constructors_reject_malformed_values(build, message):
    # the parsers never build these values, so these checks guard only
    # values built in Python
    with pytest.raises(ValueError, match=message):
        build()


def test_fd_to_dc_canonical_shape():
    dc = fd_to_dc(FD("R", frozenset({1, 2}), 3), 4)
    first, second = dc.body.atoms
    assert first.terms == (Var("x"), Var("y"), Var("z1"), Var("v"))
    assert second.terms == (Var("x"), Var("y"), Var("z2"), Var("w"))
    assert dc.body.inequalities == ((Var("z1"), Var("z2")),)


def test_fd_to_dc_smallest_shape():
    dc = fd_to_dc(FD("P", frozenset({1}), 2), 2)
    first, second = dc.body.atoms
    assert first.terms == (Var("x"), Var("z1"))
    assert second.terms == (Var("x"), Var("z2"))
    assert dc.body.inequalities == ((Var("z1"), Var("z2")),)


def _disagreeing_pairs(inst):
    # brute force: pairs agreeing on the determinant, differing at position 2
    expected = set()
    for f1 in inst.facts:
        for f2 in inst.facts:
            if f1.tid != f2.tid and f1.args[0] == f2.args[0] and f1.args[1] != f2.args[1]:
                expected.add(frozenset({f1.tid, f2.tid}))
    return expected


def test_fd_violations_are_exactly_disagreeing_pairs():
    inst = load_instance("P(a,b). P(a,c). P(b,b). P(c,d). P(c,d2). P(c,e).")
    dc = fd_to_dc(FD("P", frozenset({1}), 2), 2)
    got = {e.tids for e in violations(inst, ConstraintSet((dc,)))}
    assert got == _disagreeing_pairs(inst)


def test_fd_violations_above_the_oracle_guard():
    # 2000 distinct P(k_i, v_j) over 500 keys and 5 values
    rng = random.Random(1)
    keys = set()
    while len(keys) < 2000:
        keys.add((f"k{rng.randrange(500)}", f"v{rng.randrange(5)}"))
    inst = Instance(Fact("P", args, i) for i, args in enumerate(sorted(keys), 1))
    dc = fd_to_dc(FD("P", frozenset({1}), 2), 2)
    edges = violations(inst, ConstraintSet((dc,)))
    assert len(edges) == len({e.tids for e in edges})
    assert {e.tids for e in edges} == _disagreeing_pairs(inst)


def test_negate_query_single_disjunct():
    q = parse_query(QSTAR_TEXT)
    cs = negate_query(q)
    assert len(cs) == 1
    assert cs.dcs[0].body.atoms == q.disjuncts[0].atoms


def test_negate_query_ucq():
    q = parse_query("q :- P(x), Q(x,y).\nq :- P(x), R(x,y).")
    assert len(negate_query(q)) == 2


def test_negate_open_query_rejected():
    with pytest.raises(OpenQueryError):
        negate_query(parse_query("q(x) :- P(x)."))


def test_eval_bcq_running_example():
    inst = load_instance(DSTAR_TEXT)
    q = parse_query(QSTAR_TEXT)
    assert eval_bcq(inst, q) is True
    assert eval_bcq(inst.without({6}), q) is False
    assert eval_bcq(load_instance(""), q) is False


def test_eval_bcq_rejects_open_query():
    with pytest.raises(OpenQueryError):
        eval_bcq(load_instance(DSTAR_TEXT), parse_query("q(x) :- S(x)."))


def test_answers_open_query():
    inst = load_instance(DSTAR_TEXT)
    q = parse_query("q(x) :- S(x), R(x,y), S(y).")
    assert answers(inst, q) == {("a4",), ("a3",)}


def test_answers_boolean_query():
    inst = load_instance(DSTAR_TEXT)
    assert answers(inst, parse_query(QSTAR_TEXT)) == {()}
    assert answers(load_instance(""), parse_query(QSTAR_TEXT)) == set()


def test_quoted_constants_in_queries():
    inst = load_instance(DSTAR_TEXT)
    assert eval_bcq(inst, parse_query('q :- S("a3").'))
    assert not eval_bcq(inst, parse_query('q :- S("zz").'))


def test_constant_inequalities():
    inst = load_instance("S(a).")
    assert eval_bcq(inst, parse_query('q :- S(x), "a" != "b".'))
    assert not eval_bcq(inst, parse_query('q :- S(x), "a" != "a".'))


def test_violations_running_example():
    inst = load_instance(DSTAR_TEXT)
    cs = negate_query(parse_query(QSTAR_TEXT))
    edges = violations(inst, cs)
    assert [(sorted(e.tids), e.constraint_index) for e in edges] == [
        ([1, 4, 6], 0),
        ([3, 6], 0),
    ]


def test_violations_example_two():
    inst = load_instance("P(a). P(e). Q(a,b). R(a,c).")
    cs = parse_constraints(K12_TEXT)
    edges = violations(inst, cs)
    assert [(sorted(e.tids), e.constraint_index) for e in edges] == [
        ([1, 3], 0),
        ([1, 4], 1),
    ]


def test_violations_consistent_instance():
    inst = load_instance("P(a). Q(b,c).")
    cs = parse_constraints(":- P(x), Q(x,y).")
    assert violations(inst, cs) == []


def test_self_join_image_violating_inequality_is_no_violation():
    inst = load_instance("P(a,b).")
    dc = fd_to_dc(FD("P", frozenset({1}), 2), 2)
    assert violations(inst, ConstraintSet((dc,))) == []


def test_violations_deterministic():
    inst = load_instance(DSTAR_TEXT)
    cs = negate_query(parse_query(QSTAR_TEXT))
    assert violations(inst, cs) == violations(inst, cs)


def test_arity_mismatch_raises():
    inst = load_instance(DSTAR_TEXT)
    with pytest.raises(ArityMismatchError):
        eval_bcq(inst, parse_query("q :- R(x)."))
    # checked before the join, which would stop at the absent Z
    with pytest.raises(ArityMismatchError):
        eval_bcq(inst, parse_query("q :- Z(x), R(x)."))
    with pytest.raises(ArityMismatchError):
        violations(inst, parse_constraints(":- R(x)."))


def test_absent_predicate_is_just_false():
    inst = load_instance(DSTAR_TEXT)
    assert not eval_bcq(inst, parse_query("q :- T(x,y,z)."))


def test_eval_iff_violations_nonempty():
    q = parse_query(QSTAR_TEXT)
    cs = negate_query(q)
    for text in [DSTAR_TEXT, "S(a).", "S(a). R(a,a).", "R(a,b). S(b).", ""]:
        inst = load_instance(text)
        assert eval_bcq(inst, q) == bool(violations(inst, cs))


_SPACE = [("S", (c,)) for c in "abc"] + [("R", (c, d)) for c in "abc" for d in "abc"]
_QUERIES = [
    "q :- S(x).",
    "q :- S(x), R(x,y), S(y).",
    "q :- R(x,y), x != y.",
    "q :- R(x,x).\nq :- S(x), R(x,y).",
]


@st.composite
def small_instances(draw):
    keys = draw(st.lists(st.sampled_from(_SPACE), unique=True, max_size=7))
    return Instance(Fact(p, args, i + 1) for i, (p, args) in enumerate(keys))


@settings(deadline=None)
@given(small_instances(), st.sampled_from(_QUERIES), st.sets(st.integers(1, 7)))
def test_monotone_under_insertion(inst, query_text, dropped):
    q = parse_query(query_text)
    sub = inst.without(dropped)
    assert answers(sub, q) <= answers(inst, q)


# -- the planned, indexed join against references ---------------------------


def _binds(atom, fact, binding):
    for term, value in zip(atom.terms, fact.args):
        if isinstance(term, Var):
            if binding.setdefault(term.name, value) != value:
                return False
        elif term != value:
            return False
    return True


def _reference_solutions(inst, cq):
    """Every binding of cq, by trying each product of candidate facts."""
    candidates = [inst.of_predicate(atom.predicate) for atom in cq.atoms]
    for picked in itertools.product(*candidates):
        binding = {}
        if not all(_binds(a, f, binding) for a, f in zip(cq.atoms, picked)):
            continue
        ground = lambda t: binding[t.name] if isinstance(t, Var) else t
        if all(ground(l) != ground(r) for l, r in cq.inequalities):
            yield binding, picked


def _reference_violations(inst, cs):
    edges = {
        (frozenset(f.tid for f in picked), index)
        for index, dc in enumerate(cs.dcs)
        for _, picked in _reference_solutions(inst, dc.body)
    }
    return [
        ViolationEdge(tids, index)
        for tids, index in sorted(edges, key=lambda e: (sorted(e[0]), e[1]))
    ]


_JOIN_SPACE = (
    [("U", (c,)) for c in "abc"]
    + [("B", (c, d)) for c in "abc" for d in "abc"]
    + [("T", (c, d, e)) for c in "abc" for d in "abc" for e in "abc"]
)
_JOIN_QUERIES = [
    'q :- B(x,"a"), U(x).',
    "q :- B(x,x).",
    "q :- B(x,y), B(y,x).",
    "q :- T(x,y,z), T(x,y,w).",
    "q :- T(x,y,z), T(x,y,w), z != w.",
    'q :- T(x,y,z), z != "b".',
    'q :- B(x,y), U(y), x != "a".',
    'q :- U(x), T(y,z,w), B(z,"c"), B(x,y).',
    "q :- T(x,x,y), B(y,x), U(x).",
    "q :- U(x), Z(x).",
    "q :- U(x), B(x,y), U(y).\nq :- T(x,x,y), y != x.",
    "q(x,y) :- B(x,y), T(y,z,x).",
    "q(x) :- U(x), B(x,y), y != x.",
    'q(x) :- U(x).\nq(x) :- B(x,"b").',
    'q :- B(x,y), "a" != "b", x != y.',
    'q :- U(x), "a" != "a".',
]
_JOIN_FDS = "fd B: 1 -> 2.\nfd T: 1,2 -> 3.\nfd T: 3 -> 1."


@st.composite
def join_instances(draw):
    keys = draw(st.lists(st.sampled_from(_JOIN_SPACE), unique=True, max_size=12))
    tids = draw(st.permutations(range(1, len(keys) + 1)))
    return Instance(Fact(p, args, t) for t, (p, args) in zip(tids, keys))


@settings(deadline=None, max_examples=300)
@given(join_instances(), st.sampled_from(_JOIN_QUERIES))
def test_join_matches_product_of_candidates(inst, query_text):
    q = parse_query(query_text)
    expected = {
        tuple(binding[v] for v in q.free_vars)
        for cq in q.disjuncts
        for binding, _ in _reference_solutions(inst, cq)
    }
    assert answers(inst, q) == expected
    if q.is_boolean:
        assert eval_bcq(inst, q) == bool(expected)
    cs = ConstraintSet(tuple(DC(CQ(cq.atoms, cq.inequalities)) for cq in q.disjuncts))
    assert violations(inst, cs) == _reference_violations(inst, cs)


@settings(deadline=None)
@given(join_instances())
def test_fd_join_matches_product_of_candidates(inst):
    cs = parse_constraints(_JOIN_FDS, {"U": 1, "B": 2, "T": 3})
    assert violations(inst, cs) == _reference_violations(inst, cs)


def test_plan_binds_before_it_scans():
    cq = parse_query('q :- U(x), T(y,z,w), B(z,"c"), B(x,y).').disjuncts[0]
    assert [(a.render(), probe) for a, probe in _plan(cq)] == [
        ('B(z, "c")', 1),
        ("T(y, z, w)", 1),
        ("B(x, y)", 1),
        ("U(x)", 0),
    ]
    # ties keep query order, and an atom with nothing bound scans
    cq = parse_query("q :- S(x), R(x,y), S(y).").disjuncts[0]
    assert [probe for _, probe in _plan(cq)] == [None, 0, 0]


def test_chain_3000_violations_above_the_oracle_guard():
    # ROADMAP's chain-n generator at n = 3000, seed 1
    rng = random.Random(1)
    facts, seen = [], set()
    while len(facts) < 3000:
        if rng.random() < 0.5:
            key = ("S", (f"a{rng.randrange(1500)}",))
        else:
            key = ("R", (f"a{rng.randrange(1500)}", f"a{rng.randrange(1500)}"))
        if key not in seen:
            seen.add(key)
            facts.append(key)
    inst = Instance(Fact(p, args, i) for i, (p, args) in enumerate(facts, 1))
    s_tid = {f.args[0]: f.tid for f in inst.of_predicate("S")}
    expected = sorted(
        {
            frozenset((s_tid[f.args[0]], f.tid, s_tid[f.args[1]]))
            for f in inst.of_predicate("R")
            if f.args[0] in s_tid and f.args[1] in s_tid
        },
        key=sorted,
    )
    edges = violations(inst, negate_query(parse_query(QSTAR_TEXT)))
    assert len(expected) == 998
    assert [e.tids for e in edges] == expected
    assert {e.constraint_index for e in edges} == {0}
