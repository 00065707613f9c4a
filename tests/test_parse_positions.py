"""Error positions of the four parsers: for each malformed input, the
exception type, its full message, and its line and column.

The expected values live in golden/positions.json. Regenerate them, only
when a change of message or position is intended, with

    PYTHONPATH=src python tests/test_parse_positions.py
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whydb import load_instance, parse_constraints, parse_hard_constraints, parse_query
from whydb.errors import ParseError

GOLDEN = Path(__file__).parent / "golden" / "positions.json"
ARITIES = {"P": 1, "Q": 2, "R": 2, "S": 1, "T": 3}
PARSERS = {
    "facts": load_instance,
    "query": parse_query,
    "constraints": lambda text: parse_constraints(text, ARITIES),
    "constraints-no-arities": parse_constraints,
    "hard": parse_hard_constraints,
}
LAYOUT = {
    # the same second-statement error under four layouts
    "lf": "{a}.\n{b}",
    "crlf": "{a}.\r\n{b}",
    "tabs": "\t{a}.\n\t\t{b}",
    "comments": "% first\n{a}. % trailing %\n% between\n  {b}",
}
# parser -> (a valid statement, the same with a syntax error and no newline)
STATEMENTS = {
    "facts": ("P(a)", "Q(b,"),
    "query": ("q :- S(x)", "q :- S(x), R(x,"),
    "constraints": (":- S(x)", ":- S(x), R(x,"),
    "hard": ("R[1] <= S[1]", "R[1] <= S[1"),
}
CASES = {
    # fact files
    "facts/unterminated": ("facts", "P(a"),
    "facts/no-period-last-line": ("facts", "P(a).\nQ(b)"),
    "facts/no-period-then-newline": ("facts", "P(a)\n"),
    "facts/empty-args": ("facts", "P()."),
    "facts/trailing-comma": ("facts", "P(a,)."),
    "facts/no-predicate": ("facts", "(a)."),
    "facts/no-parenthesis": ("facts", "P a)."),
    "facts/extra-parenthesis": ("facts", "P(a))."),
    "facts/second-fact": ("facts", "P(a).\nP(b c)."),
    "facts/comment-inside-args": ("facts", "P(a%b).\nQ(c,d)."),
    "facts/exo-no-predicate": ("facts", "@exo (a)."),
    "facts/exo-alone": ("facts", "P(a).\n@exo"),
    "facts/tid-zero": ("facts", "P[1](a).\n  P[0](b)."),
    "facts/tid-not-int": ("facts", "P[x](a)."),
    "facts/tid-unclosed": ("facts", "P[1(a)."),
    "facts/duplicate-tid": ("facts", "P[1](a).\n\tP[1](b)."),
    "facts/duplicate-fact": ("facts", "P(a).\nQ(b,c).\n   P(a)."),
    "facts/duplicate-fact-crlf": ("facts", "P(a).\r\nQ(b,c).\r\n   P(a)."),
    "facts/arity-clash": ("facts", "P(a).\n\nP(a,b)."),
    "facts/arity-clash-after-comment": ("facts", "P(a). % P/1\n% next\n\tP(a,b)."),
    "facts/mixed-tids-implicit-later": ("facts", "P[1](a).\n  P(b)."),
    "facts/mixed-tids-explicit-later": ("facts", "P(a).\n  P[2](b).\n P(c)."),
    "facts/comment-only": ("facts", "% nothing here\n"),
    "facts/empty": ("facts", ""),
    "facts/comment-before-error": ("facts", "P % c\n  (a ,\t)"),
    "facts/spaces-in-tid": ("facts", "@exo  P [ 3 ] ( a ) x"),
    "facts/comment-before-eof": ("facts", "P(a) .\r\n  Q ( b , % c\n c"),
    # queries
    "query/empty": ("query", ""),
    "query/comment-only": ("query", "% no rules\n% at all\n"),
    "query/comment-only-no-newline": ("query", "% no rules"),
    "query/unterminated": ("query", "q :- S(x"),
    "query/no-period": ("query", "q :- S(x)\n"),
    "query/no-head": ("query", "1 :- S(x)."),
    "query/no-arrow": ("query", "q S(x)."),
    "query/no-term": ("query", "q :- S(,)."),
    "query/missing-inequality-term": ("query", "q :- S(x), x !="),
    "query/single-equals": ("query", "q :- S(x), x = y."),
    "query/missing-comma": ("query", "q :- S(x) R(y)."),
    "query/bang-in-term": ("query", "q :- S(A!B)."),
    "query/quote-in-term": ("query", 'q :- S(A"b").'),
    "query/quoted-unterminated-newline": ("query", 'q :- S("ab\n).'),
    "query/quoted-unterminated-eof": ("query", 'q :- S(x), R(x, "ab'),
    "query/quoted-unterminated-crlf": ("query", 'q :- S("ab\r\n).'),
    "query/quoted-bad-constant": ("query", 'q :- S("a b").'),
    "query/quoted-comment-char": ("query", 'q :- S(x),\n  R(x, "a%b").'),
    "query/quoted-empty": ("query", 'q :- S("").'),
    "query/head-constant": ("query", "q(A) :- S(A)."),
    "query/head-repeated": ("query", "q(x, x) :- S(x)."),
    "query/no-atom": ("query", "q :- x != y."),
    "query/heads-differ": ("query", "q :- S(x).\n  p :- S(x)."),
    "query/head-vars-differ": ("query", "q(x) :- S(x).\nq(y) :- S(y)."),
    "query/second-rule": ("query", "q :- S(x).\nq :- R(x,."),
    "query/unsafe-head": ("query", "S(x) :- S(a)."),
    "query/unsafe-inequality": ("query", "q :- S(x), y != x."),
    "query/unsafe-second-rule": ("query", "q :- S(x).\n% next\n  q :- R(x,z), w != z."),
    "query/unsafe-then-syntax": ("query", "S(x) :- S(a).\nq :- R(x,."),
    "query/unsafe-then-heads-differ": ("query", "q(x) :- S(y).\np(x) :- S(x)."),
    "query/spaces-around-quoted": ("query", 'q :- S( x ) , R(x , "a,b"   ).'),
    "query/spaces-in-head": ("query", "q ( x , A ) :- S(x)."),
    "query/comment-before-inequality-term": ("query", "q :- S (x) , x != % c\n ."),
    "query/comment-before-missing-comma": ("query", "q :- S(x) % c\n R(x,y)."),
    # denial constraints and fds
    "constraints/no-atom": ("constraints", ":- x != y."),
    "constraints/no-atom-second": ("constraints", ":- S(x).\n  :- x != y."),
    "constraints/second": ("constraints", ":- S(x).\n:- R(x,."),
    "constraints/bad-keyword": ("constraints", "foo R: 1 -> 2."),
    "constraints/no-keyword": ("constraints", "1"),
    "constraints/fd-no-colon": ("constraints", "fd R 1 -> 2."),
    "constraints/fd-no-position": ("constraints", "fd R: 1, -> 2."),
    "constraints/fd-no-arrow": ("constraints", "fd R: 1 - 2."),
    "constraints/fd-no-period": ("constraints", "fd R: 1 -> 2"),
    "constraints/fd-zero": ("constraints", "fd R: 0 -> 1."),
    "constraints/fd-determined-determinant": ("constraints", "fd R: 1 -> 1."),
    "constraints/fd-out-of-range": ("constraints", ":- S(x).\n\tfd R: 1 -> 5."),
    "constraints/fd-unknown-arity": ("constraints", "fd R: 1 -> 2.\n  fd Z: 1 -> 2."),
    "constraints/fd-unknown-arity-crlf": ("constraints", "% fds\r\n fd Z: 1 -> 2."),
    "constraints-no-arities/fd": ("constraints-no-arities", ":- S(x).\nfd R: 1 -> 2."),
    "constraints/unsafe": ("constraints", ":- S(x), y != x."),
    "constraints/unsafe-second": ("constraints", ":- S(x).\n  :- S(x), y != x."),
    "constraints/unsafe-then-syntax": ("constraints", ":- S(x), y != x.\n:- R(x,."),
    "constraints/empty": ("constraints", ""),
    "constraints/comment-only": ("constraints", "% no constraints\r\n\t% here"),
    "constraints/fd-comment-before-arrow": ("constraints", "fd R : 1 , % c\n -> 2."),
    # hard constraints
    "hard/no-period": ("hard", "R[1] <= S[1]"),
    "hard/no-statement": ("hard", "1"),
    "hard/empty-positions": ("hard", "R[] <= S[1]."),
    "hard/less-than": ("hard", "R[1] < S[1]."),
    "hard/position-zero": ("hard", "R[0] <= S[1]."),
    "hard/position-zero-later": ("hard", "R[1] <= S[1].\n  T[1,2] <= S[0,1]."),
    "hard/unequal-lengths": ("hard", "R[1] <= S[1].\r\n\tR[1,2] <= S[1]."),
    "hard/no-atom": ("hard", "R[1] <= S[1].\n:- x != y."),
    "hard/second": ("hard", "R[1] <= S[1].\n:- R(x,."),
    "hard/unsafe": ("hard", "% dc\n:- S(x), y != x."),
    "hard/empty": ("hard", ""),
    "hard/comment-only": ("hard", "\n% no hard constraints\n"),
    "hard/comment-before-position": ("hard", "R [ 1 ] <= S [ % c\n ]."),
    "hard/comment-before-missing-period": ("hard", "R[1] <= S[1] % c\n\t:- S(x)."),
}
for _parser, (_good, _bad) in STATEMENTS.items():
    for _layout, _template in LAYOUT.items():
        CASES[f"{_parser}/layout-{_layout}"] = (
            _parser, _template.format(a=_good, b=_bad)
        )


def _outcome(parser: str, text: str) -> dict:
    try:
        PARSERS[parser](text)
    except ParseError as exc:
        return {
            "error": type(exc).__name__,
            "message": str(exc),
            "line": exc.line,
            "column": exc.column,
        }
    return {"error": None}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_error_position_matches_golden(name, golden):
    assert {"text": CASES[name][1], **_outcome(*CASES[name])} == golden[name]


TOKENS = (
    "P", "S", "R", "Z", "q", "fd", "x", "y", "a", "A1", "@exo", '"', '"a"', "(", ")",
    "[", "]", ",", ".", ":-", ":", "->", "!=", "<=", "=", "!", "%", "0", "1", "2",
    " ", "\t", "\r", "\n", "\r\n", "\u00e9",
)
VALID = (
    "P(a). @exo Q[2](b,c). % c\n",
    'q(x) :- S(x), R(x, "y"), x != A1.\nq(y) :- S(y).',
    ":- S(x), R(x,y), S(y).\r\nfd R: 1 -> 2.",
    "R[1] <= S[1].\n:- R(x,y), x != y.",
)
TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(TOKENS), max_size=30).map("".join),
    st.builds(
        lambda text, cut, token: text[:cut] + token + text[cut:],
        st.sampled_from(VALID), st.integers(0, 45), st.sampled_from(TOKENS + ("",)),
    ),
)


@settings(deadline=None, max_examples=400)
@given(text=TEXTS)
def test_parsers_return_a_value_or_a_parse_error_inside_the_text(text):
    lines = text.split("\n")
    for parse in PARSERS.values():
        try:
            parse(text)
        except ParseError as exc:
            assert 1 <= exc.line <= len(lines)
            assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1


if __name__ == "__main__":
    result = {
        name: {"text": text, **_outcome(parser, text)}
        for name, (parser, text) in CASES.items()
    }
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(result)} cases to {GOLDEN}", file=sys.stderr)
