import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whydb import (
    Fact,
    Instance,
    ParseError,
    UnknownTidError,
    dump_instance,
    load_instance,
    tuple_by_tid,
)
from whydb._scan import Scanner
from whydb.core import _FACT_RE, _fact_of, _read_fact

from conftest import DSTAR_TEXT


def test_tids_follow_file_order():
    inst = load_instance(DSTAR_TEXT)
    assert [f.tid for f in inst.facts] == [1, 2, 3, 4, 5, 6]
    assert inst.fact(1).atom_text() == "R(a4,a3)"
    assert inst.fact(4).atom_text() == "S(a4)"
    assert all(not f.exogenous for f in inst.facts)


def test_tuple_by_tid_running_example():
    inst = load_instance(DSTAR_TEXT)
    assert tuple_by_tid(inst, 6).atom_text() == "S(a3)"
    assert tuple_by_tid(inst, 1).atom_text() == "R(a4,a3)"


def test_tuple_by_tid_unknown():
    inst = load_instance(DSTAR_TEXT)
    with pytest.raises(UnknownTidError):
        tuple_by_tid(inst, 99)


def test_empty_input():
    inst = load_instance("")
    assert len(inst) == 0
    assert inst.tids == frozenset()


def test_duplicate_fact_rejected():
    with pytest.raises(ParseError, match="duplicate fact"):
        load_instance("P(a). P(a).")


def test_duplicate_fact_across_genus_rejected():
    with pytest.raises(ParseError, match="duplicate fact"):
        load_instance("P(a). @exo P(a).")


def test_explicit_tids():
    inst = load_instance("P[7](a). Q[2](a,b).")
    assert inst.fact(7).atom_text() == "P(a)"
    assert inst.fact(2).atom_text() == "Q(a,b)"
    assert inst.tids == frozenset({2, 7})


def test_duplicate_explicit_tid():
    with pytest.raises(ParseError, match="duplicate tid"):
        load_instance("P[1](a). Q[1](b).")


def test_mixed_tid_modes_rejected():
    with pytest.raises(ParseError, match="mixed tid modes"):
        load_instance("P[1](a). Q(b).")


def test_exogenous_prefix():
    inst = load_instance("@exo P(a). Q(b).")
    assert inst.fact(1).exogenous
    assert not inst.fact(2).exogenous
    assert inst.endogenous_tids == frozenset({2})


def test_arity_clash():
    with pytest.raises(ParseError, match="arity clash"):
        load_instance("P(a). P(a,b).")


def test_errors_reported_in_file_order_with_position():
    # explicit tids out of order: the later line is the offending one
    with pytest.raises(ParseError, match=r"arity clash for P: 1 vs 2") as exc:
        load_instance("P[2](a).\n  P[1](a,b).")
    assert (exc.value.line, exc.value.column) == (2, 3)
    with pytest.raises(ParseError, match="duplicate fact Q") as exc:
        load_instance("Q[9](b). P[3](a). Q[1](b).")
    assert (exc.value.line, exc.value.column) == (1, 19)


def test_comments_and_whitespace():
    text = """
    % the running example, reformatted
    R(a4,a3).   R(a2,a1).
      R(a3,a3). % self-join row
    S(a4). S(a2). S(a3).
    """
    assert load_instance(text) == load_instance(DSTAR_TEXT)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        load_instance("P(a).\nQ(b")
    assert exc.value.line == 2


def test_parse_error_message_names_what_position_it_has():
    assert str(ParseError("bad", line=3, column=5)) == "bad (line 3, column 5)"
    no_column = ParseError("bad", line=3)
    assert str(no_column) == "bad (line 3)"
    assert (no_column.line, no_column.column) == (3, None)
    assert str(ParseError("bad")) == "bad"


def test_constants_are_opaque():
    inst = load_instance("P(a-b,3,x_Y). P(0,0,0).")
    assert inst.fact(1).args == ("a-b", "3", "x_Y")


def test_bad_syntax():
    for text in ["P(a)", "P().", "1P(a).", "P(a,).", "@exo", "P[0](a)."]:
        with pytest.raises(ParseError):
            load_instance(text)


# Layout that may stand between any two tokens; a comment may hold tokens.
_LAYOUTS = ["", " ", "\t", "\r\n", "\n\n", "% note\n", "%%,).\n", " %[1](a).\n\t"]
_CONSTANTS = ["a", "b4", "a.b", "x.", ".", "@", "@exo", '"q"', '"a b"', "é"]
# tids: "٣" is ARABIC-INDIC DIGIT THREE, "１２" FULLWIDTH DIGITs
_TIDS = ["1", "7", "0", "007", "00", "٣", "１２"]


@st.composite
def fact_statements(draw):
    """A fact statement, valid or nearly so, between layout, and some text
    after it."""
    tokens = ["@exo"] if draw(st.booleans()) else []
    tokens.append(draw(st.sampled_from(["P", "R2", "a_b", "1P", "_x"])))
    if draw(st.booleans()):
        tokens += ["[", draw(st.sampled_from(_TIDS)), "]"]
    tokens.append("(")
    for i, arg in enumerate(draw(st.lists(st.sampled_from(_CONSTANTS), min_size=1, max_size=4))):
        tokens += [","] * (i > 0) + [arg]
    tokens += [")", "."]
    at = draw(st.integers(0, len(tokens) - 1))
    mutation = draw(st.sampled_from(["none", "none", "drop", "repeat"]))
    if mutation == "drop":
        del tokens[at]
    elif mutation == "repeat":
        tokens.insert(at, tokens[at])
    layouts = draw(st.lists(st.sampled_from(_LAYOUTS), min_size=len(tokens) + 1,
                            max_size=len(tokens) + 1))
    rest = draw(st.sampled_from(["", "Q(b).", "x", ".", "%end"]))
    return "".join(lay + tok for lay, tok in zip(layouts, tokens)) + layouts[-1] + rest


@settings(deadline=None, max_examples=500)
@given(fact_statements())
@example("P(a,).")
@example("P[1(a).")
@example("P(a)")
@example("P(a) Q(b).")
@example("@exo")
@example("@exo %c\n")
@example("@exoP(a).")
@example("P[0](a).")
@example("P[0(a).")
@example("P(a %,b).\n")
def test_fact_pattern_agrees_with_token_reader(text):
    # `load_instance` reads every statement with `_FACT_RE` and leaves only
    # the ones it rejects to `_read_fact`: the two must accept the same
    # statements, read them alike and end at the same offset
    sc = Scanner(text)
    m = _FACT_RE.match(text, sc.pos)
    by_pattern = None if m is None else _fact_of(m)
    if by_pattern is not None and by_pattern[2] is not None and by_pattern[2] < 1:
        by_pattern = None  # load_instance rejects it: "tids must be positive"
    try:
        by_tokens = _read_fact(sc)
    except ParseError:
        by_tokens = None
    assert by_pattern == by_tokens
    if by_tokens is not None:
        assert m.end() == sc.pos


@pytest.mark.parametrize(
    "text",
    [
        "P(a" + " " * 100_000 + "x).",
        "P(a " + "%" * 100_000,
        "P(" + ",".join(f"a{i}" for i in range(50_000)) + ".",
    ],
    ids=["blanks", "comment", "arguments"],
)
def test_long_malformed_statement_fails_in_linear_time(text):
    # a statement pattern that could match its layout in more than one way
    # would backtrack exponentially before handing over to the token reader
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        load_instance(text)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value).startswith("expected ")


def test_round_trip_running_example():
    inst = load_instance(DSTAR_TEXT)
    assert load_instance(dump_instance(inst)) == inst


_SPACE = [("P", (c,)) for c in "abc"] + [
    ("Q", (c, d)) for c in "abc" for d in "abc"
]


@st.composite
def instances(draw):
    keys = draw(st.lists(st.sampled_from(_SPACE), unique=True, max_size=8))
    flags = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    tids = draw(
        st.lists(
            st.integers(min_value=1, max_value=50),
            unique=True,
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return Instance(
        Fact(pred, args, tid, exo)
        for (pred, args), tid, exo in zip(keys, tids, flags)
    )


@given(instances())
def test_round_trip_property(inst):
    assert load_instance(dump_instance(inst)) == inst


@given(instances())
def test_tid_assignment_is_injective(inst):
    assert len(inst.tids) == len(inst)


def test_instance_constructor_validates():
    with pytest.raises(ValueError, match="bad predicate name"):
        Fact("1P", ("a",), 1)
    with pytest.raises(ValueError, match="at least one argument"):
        Fact("P", (), 1)
    with pytest.raises(ValueError, match="bad constant"):
        Fact("P", ("a,b",), 1)
    with pytest.raises(ValueError, match="tids are positive"):
        Fact("P", ("a",), 0)
    with pytest.raises(ValueError):
        Instance([Fact("P", ("a",), 1), Fact("P", ("a",), 2)])
    with pytest.raises(ValueError):
        Instance([Fact("P", ("a",), 1), Fact("Q", ("b",), 1)])
    with pytest.raises(ValueError):
        Instance([Fact("P", ("a",), 1), Fact("P", ("a", "b"), 2)])


def test_instance_iterates_and_hashes_by_its_facts():
    inst = load_instance(DSTAR_TEXT)
    assert list(inst) == list(inst.facts)
    same = load_instance(DSTAR_TEXT)
    assert same is not inst and hash(same) == hash(inst)
    assert {inst: "d*"}[same] == "d*"
    assert len({inst, same, inst.without({6})}) == 2


def test_restrict_and_without():
    inst = load_instance(DSTAR_TEXT)
    sub = inst.restrict({1, 2, 3})
    assert sub.tids == frozenset({1, 2, 3})
    assert inst.without({6}).tids == inst.tids - {6}
