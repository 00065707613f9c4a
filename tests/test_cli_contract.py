"""The CLI's exit-code contract: on any small fact, query, constraint and
hard-constraint files, every command in both formats returns 0, 1 or 2 from
`main` and raises nothing."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from whydb.cli import main

TOKENS = (
    "S", "R", "P", "q", "fd", "x", "y", "a", "b", "A1", "@exo", '"', '"a"', "(", ")",
    "[", "]", ",", ".", ":-", ":", "->", "!=", "<=", "=", "%", "0", "1", "2", "3",
    " ", "\t", "\r\n", "\n", "é",
)
FACTS = ("S(a).", "S(b).", "R(a,b).", "R(b,a).", "R(a,a).", "@exo S(c).", "P(a).")
QUERIES = (
    "q :- S(x), R(x,y), S(y).", "q :- S(x).", "q :- R(x,y), R(y,x), x != y.",
    'q :- S("a").', "q :- P(x), S(x).",
)
OPEN_QUERY = "q(x) :- S(x), R(x,y)."
CONSTRAINTS = (
    ":- S(x), R(x,y), S(y).", "fd R: 1 -> 2.", ":- R(x,y), R(y,x).",
    ":- S(x), S(y), x != y.", ":- P(x), S(x).",
)
HARD = ("R[1] <= S[1].", "S[1] <= S[2].", ":- R(x,y), R(y,x), x != y.", "P[1] <= S[1].")


def _cut_in(parts: list[str], cut: int, token: str) -> str:
    text = " ".join(parts)
    cut %= len(text) + 1
    return text[:cut] + token + text[cut:]


def _file(statements, min_size=0):
    """Mostly a few distinct valid statements; else the same with one token
    cut in, or token soup."""
    parts = st.lists(
        st.sampled_from(statements), min_size=min_size, max_size=4, unique=True
    )
    near_valid = st.builds(_cut_in, parts, st.integers(0, 200), st.sampled_from(TOKENS))
    soup = st.lists(st.sampled_from(TOKENS), max_size=20).map("".join)
    kinds = {"near-valid": near_valid, "soup": soup, "valid": parts.map(" ".join)}
    return st.sampled_from(["valid"] * 10 + ["near-valid", "soup"]).flatmap(kinds.get)


def _commands(d: str, tid: int, dialect: str) -> list[list[str]]:
    db = ["--db", f"{d}/facts"]
    q = ["--query-file", f"{d}/query"]
    cs = ["--constraints", f"{d}/constraints"]
    hard = ["--hard", f"{d}/hard"]
    return [
        ["repairs", *db, *cs, *hard],
        ["repairs", *db, *cs, "--kind", "c"],
        ["causes", *db, *q, *hard],
        ["contingency", *db, *q, "--tid", str(tid)],
        ["responsibility", *db, *q, "--tid", str(tid)],
        ["counterfactual", *db, *q],
        ["most-responsible", *db, *q],
        ["query", *db, *q],
        ["emit-asp", *db, *cs, "--dialect", dialect],
        ["emit-asp", *db, *q, *hard, "--dialect", dialect, "--responsibility-rules"],
        ["oracle-check", *db, *cs, *hard],
        ["oracle-check", *db, *q],
    ]


@settings(deadline=None, max_examples=100)
@given(
    facts=_file(FACTS),
    query=st.sampled_from([False] * 5 + [True]).flatmap(
        lambda is_open: st.just(OPEN_QUERY) if is_open else _file(QUERIES, min_size=1)
    ),
    constraints=_file(CONSTRAINTS),
    hard=_file(HARD),
    tid=st.integers(1, 4),
    dialect=st.sampled_from(("core-disjunctive", "core-normalized", "extended")),
)
@example(
    facts="S(a).",
    query="q :- S(x).",
    constraints=":- S(x), S(y), x != y.",
    hard="S[1] <= S[2].",
    tid=1,
    dialect="core-disjunctive",
)
def test_every_command_exits_0_1_or_2(facts, query, constraints, hard, tid, dialect):
    with tempfile.TemporaryDirectory() as d:
        files = {"facts": facts, "query": query, "constraints": constraints, "hard": hard}
        for name, text in files.items():
            Path(d, name).write_text(text, encoding="utf-8")
        for argv in _commands(d, tid, dialect):
            for fmt in ("text", "json"):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = main([*argv, "--format", fmt])
                assert code in (0, 1, 2), argv
