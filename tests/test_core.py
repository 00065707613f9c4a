import sys
import time
from dataclasses import FrozenInstanceError

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
from whydb.core import _FACT_RE, _FactError, _fact_of, _read_fact

from conftest import D2STAR_TEXT, DSTAR_TEXT


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


def _load_by_tokens(text):
    """`load_instance` the slow way: every statement read token by token,
    every fact built by `Fact(...)`, and the same checks in the same order."""
    sc = Scanner(text)
    statements = [(start, _read_fact(sc)) for start in sc.statements()]
    implicit = [start for start, (_, _, tid, _) in statements if tid is None]
    if implicit and len(implicit) != len(statements):
        raise sc.error(
            "mixed tid modes: every fact must carry an explicit tid or none may",
            at=implicit[0],
        )
    try:
        return Instance(
            Fact(predicate, args, i + 1 if tid is None else tid, exogenous)
            for i, (_, (exogenous, predicate, tid, args)) in enumerate(statements)
        )
    except _FactError as exc:
        raise sc.error(str(exc), at=statements[exc.index][0]) from None


def _outcome(load, text):
    """The facts with their flags, or the error's message, line and column."""
    try:
        inst = load(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("instance", [(f.tid, f.predicate, f.args, f.exogenous) for f in inst])


# Valid statements that clash: a duplicate fact, an arity clash, a duplicate
# tid, or mixed tid modes
_CLASHING = ["P(a).", "@exo P(a).", "P(a,b).", "P[1](a).", "Q[1](b).", "Q[2](a,b).", "Q(b)."]


@settings(deadline=None, max_examples=500)
@given(st.lists(st.one_of(fact_statements(), st.sampled_from(_CLASHING)), max_size=5),
       st.sampled_from(["\n", " ", "", "% c\n"]))
@example(["P[2](a).", "P[1](a,b)."], "\n")
@example(["P(a).", "@exo P(a)."], " ")
@example(["P[1](a).", "Q[1](b)."], " ")
@example(["P[1](a).", "Q(b).", "R[0](c)."], " ")
@example(["P(a).", "Q[1](b).", "R(c d)."], " ")
@example(["@exo P[٣](a).", "Q[１２](b).", "R[007](c)."], "\n")
def test_load_instance_agrees_with_token_reader(statements, separator):
    # the one-pass loader and the token reader give the same instance, or
    # the same error at the same place
    text = separator.join(statements)
    assert _outcome(load_instance, text) == _outcome(_load_by_tokens, text)


_VALID_FACTS = "".join(f"P(a{i}).\n" for i in range(20_000))


@pytest.mark.parametrize(
    "text, error",
    [
        ("P(a" + " " * 100_000 + "x).", None),
        ("P(a " + "%" * 100_000, None),
        ("P(" + ",".join(f"a{i}" for i in range(50_000)) + ".", None),
        ("P(a). " + "a" * 20_000, "expected '(' (line 1, column 20007)"),
        (_VALID_FACTS + "Q(b e).", None),
    ],
    ids=["blanks", "comment", "arguments", "identifier", "after-valid-facts"],
)
def test_long_malformed_statement_fails_in_linear_time(text, error):
    # a statement pattern that could match its layout in more than one way
    # would backtrack exponentially before handing over to the token reader;
    # one that searched past a statement it rejects would retry at every
    # later offset
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        load_instance(text)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value).startswith("expected ")
    if error is not None:
        assert str(exc.value) == error
    with pytest.raises(ParseError) as by_tokens:
        _load_by_tokens(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        str(by_tokens.value), by_tokens.value.line, by_tokens.value.column
    )


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


def _assert_built_alike(inst):
    for f in inst:
        built = Fact(f.predicate, f.args, f.tid, f.exogenous)
        assert type(f) is Fact
        assert f == built and hash(f) == hash(built) and repr(f) == repr(built)
        assert list(vars(f)) == list(vars(built)) == ["predicate", "args", "tid", "exogenous"]
        # a dict filled by `__dict__.update` does not share its keys with the
        # class's other instances, and is larger
        assert sys.getsizeof(vars(f)) == sys.getsizeof(vars(built))
        with pytest.raises(FrozenInstanceError):
            f.tid = f.tid + 1


@pytest.mark.parametrize(
    "text",
    [DSTAR_TEXT, D2STAR_TEXT, "@exo % never deleted\nP [7] ( a ,\n        b ) .  Q[8](c)."],
    ids=["dstar", "d2star", "readme"],
)
def test_loaded_facts_are_built_alike_on_fixtures(text):
    _assert_built_alike(load_instance(text))


@given(instances(), st.sampled_from(_LAYOUTS), st.sampled_from(_LAYOUTS))
def test_loaded_facts_are_built_alike(inst, between, inside):
    # `@exo`, explicit tids, and layout with comments between the facts and
    # between their arguments
    text = between.join(
        line.replace(",", inside + "," + inside) for line in dump_instance(inst).splitlines()
    )
    loaded = load_instance(text)
    assert loaded == inst
    _assert_built_alike(loaded)


@given(instances())
def test_round_trip_property(inst):
    assert load_instance(dump_instance(inst)) == inst


@given(instances())
def test_tid_assignment_is_injective(inst):
    assert len(inst.tids) == len(inst)


@given(instances(), st.sets(st.integers(1, 50)))
def test_parts_are_the_instances_built_with_checks(inst, tids):
    """`without` and `restrict` skip the checks their facts have passed, and
    give the instance that `Instance` builds from those facts with them,
    given in any order."""
    for part, kept in (
        (inst.without(tids), [f for f in inst if f.tid not in tids]),
        (inst.restrict(tids), [f for f in inst if f.tid in tids]),
    ):
        checked = Instance(reversed(kept))
        assert part.facts == checked.facts == tuple(kept)
        assert part._by_pred == checked._by_pred
        assert list(part.arities.items()) == list(checked.arities.items())
        assert part.tids == checked.tids
        assert part.endogenous_tids == checked.endogenous_tids
        assert [part.fact(f.tid) for f in kept] == kept
        assert part == checked and hash(part) == hash(checked)


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
