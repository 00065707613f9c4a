"""Byte-exact CLI goldens: stdout, stderr and exit code of every command in
both formats on small fixtures, plus every `--help` text and `--version`.

The expected bytes live in golden/cli.json. Python 3.13's argparse breaks
some usage lines at other places; golden/cli-py313.json holds those cases'
bytes under Python 3.13 and later. Regenerate them, only when an output
change is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py

under Python 3.12 or earlier for cli.json, then under 3.13 or later for
cli-py313.json, which keeps only the cases that differ from cli.json.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from whydb.cli import main

from conftest import D2STAR_TEXT, DSTAR_TEXT, K12_TEXT, QSTAR_TEXT

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
GOLDEN_313 = Path(__file__).parent / "golden" / "cli-py313.json"
NEW_ARGPARSE = sys.version_info >= (3, 13)
COMMANDS = (
    "repairs", "causes", "contingency", "responsibility", "counterfactual",
    "most-responsible", "query", "emit-asp", "oracle-check",
)
DIALECTS = ("core-disjunctive", "core-normalized", "extended")
FILES = {
    "dstar.facts": DSTAR_TEXT,
    "d2star.facts": D2STAR_TEXT,
    "exo.facts": "@exo S(a3). @exo R(a3,a3).",
    "exomix.facts": "@exo S(a3). R(a4,a3). R(a3,a3). S(a4).",
    "empty.facts": "",
    "broken.facts": "P(a",
    "kq.dc": ":- S(x), R(x,y), S(y).",
    "k12.dc": K12_TEXT,
    "qstar.q": QSTAR_TEXT,
    "hard.ref": "R[1] <= S[1].\n:- R(x,y), R(y,x), x != y.",
    "one.facts": "S(a).",
    "pair.dc": ":- S(x), S(y), x != y.",
    "wide.ref": "S[1] <= S[2].",
}
# fixture -> (query, constraint file)
FIXTURES = {
    "dstar": (QSTAR_TEXT, "kq.dc"),
    "d2star": ("q :- P(x), Q(x,y).", "k12.dc"),
    "exo": (QSTAR_TEXT, "kq.dc"),
    "exomix": (QSTAR_TEXT, "kq.dc"),
    "empty": (QSTAR_TEXT, "kq.dc"),
}


def _cases() -> dict[str, tuple[list[str], dict[str, str]]]:
    """Case name -> (argv with `{dir}` for the fixture directory, env)."""
    cases = {}

    def add(name, *argv, env=None):
        cases[name] = (list(argv), env or {})

    for fx, (q, cs) in FIXTURES.items():
        db = ["--db", f"{{dir}}/{fx}.facts"]
        query = ["-q", q]
        constraints = ["--constraints", f"{{dir}}/{cs}"]
        base = {
            "repairs-s": ["repairs", *db, *constraints],
            "repairs-c": ["repairs", *db, *constraints, "--kind", "c"],
            "causes": ["causes", *db, *query],
            "contingency": ["contingency", *db, *query, "--tid", "1"],
            "responsibility": ["responsibility", *db, *query, "--tid", "1"],
            "counterfactual": ["counterfactual", *db, *query],
            "most-responsible": ["most-responsible", *db, *query],
            "query": ["query", *db, *query],
            "emit-asp-repair": ["emit-asp", *db, *constraints],
            "emit-asp-causality": ["emit-asp", *db, *query],
            "oracle-check": ["oracle-check", *db, *query, *constraints],
        }
        for name, argv in base.items():
            for fmt in ("text", "json"):
                add(f"{fx}/{name}.{fmt}", *argv, "--format", fmt)

    db = ["--db", "{dir}/dstar.facts"]
    query = ["-q", QSTAR_TEXT]
    kq = ["--constraints", "{dir}/kq.dc"]
    hard = ["--hard", "{dir}/hard.ref"]
    extras = {
        "repairs-s-hard": ["repairs", *db, *kq, *hard],
        "repairs-c-hard": ["repairs", *db, *kq, "--kind", "c", *hard],
        "causes-hard": ["causes", *db, *query, *hard],
        "causes-query-file": ["causes", *db, "--query-file", "{dir}/qstar.q"],
        "contingency-tid6": ["contingency", *db, *query, "--tid", "6"],
        "contingency-tid2": ["contingency", *db, *query, "--tid", "2"],
        "responsibility-tid6": ["responsibility", *db, *query, "--tid", "6"],
        "responsibility-tid2": ["responsibility", *db, *query, "--tid", "2"],
        "query-open": ["query", *db, "-q", "q(x) :- S(x), R(x,y), S(y)."],
        "query-open-empty": ["query", *db, "-q", "q(x) :- S(x), R(x,x), S(y), x != y."],
        "emit-asp-hard": ["emit-asp", *db, *query, *hard],
        "emit-asp-all-options": [
            "emit-asp", *db, *query, "--dialect", "extended",
            "--no-cause-rules", "--contingency-union", "--responsibility-rules",
            "--weak-constraints",
        ],
        "oracle-check-hard": ["oracle-check", *db, *query, *hard],
        "oracle-check-constraints": ["oracle-check", *db, *kq],
    }
    for dialect in DIALECTS:
        dialect_argv = ["--dialect", dialect]
        extras[f"emit-asp-repair-{dialect}"] = ["emit-asp", *db, *kq, *dialect_argv]
        extras[f"emit-asp-causality-{dialect}"] = [
            "emit-asp", *db, *query, *dialect_argv
        ]
    for name, argv in extras.items():
        for fmt in ("text", "json"):
            add(f"dstar/{name}.{fmt}", *argv, "--format", fmt)

    # errors and exit codes
    tid99 = ["--tid", "99"]
    add("error/responsibility-unknown-tid", "responsibility", *db, *query, *tid99)
    add("error/causes-open-query", "causes", *db, "-q", "q(x) :- S(x).")
    add("error/causes-parse", "causes", "--db", "{dir}/broken.facts", *query)
    add("error/causes-missing-file", "causes", "--db", "{dir}/missing.facts", *query)
    add("error/causes-bad-query", "causes", *db, "-q", "q :- S(x")
    none = ["--constraints", "{dir}/none.dc"]
    add("error/repairs-missing-constraints", "repairs", *db, *none)
    add("error/emit-asp-no-source", "emit-asp", *db)
    add("error/emit-asp-two-sources", "emit-asp", *db, *query, *kq)
    add("error/emit-asp-hard-repair", "emit-asp", *db, *kq, *hard)
    add("error/oracle-check-no-input", "oracle-check", *db)
    guard = {"WHYDB_ORACLE_GUARD": "2"}
    add("error/oracle-check-guard", "oracle-check", *db, *query, env=guard)
    for name, value in (("malformed", "abc"), ("negative", "-1")):
        add(
            f"error/oracle-check-guard-{name}", "oracle-check", *db, *query,
            env={"WHYDB_ORACLE_GUARD": value},
        )
    add(
        "error/oracle-check-hard-position", "oracle-check", "--db", "{dir}/one.facts",
        "--constraints", "{dir}/pair.dc", "--hard", "{dir}/wide.ref",
    )
    add("error/usage-missing-db", "causes", *query)
    add("error/usage-unknown-command", "no-such-command")
    add("error/usage-no-command")
    add("usage/version", "--version")
    add("help/whydb", "--help")
    for command in COMMANDS:
        add(f"help/{command}", command, "--help")
    return cases


def _run(argv: list[str], directory: Path, env: dict[str, str]) -> dict:
    argv = [a.replace("{dir}", str(directory)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(directory), "{dir}"),
        "stderr": err.getvalue().replace(str(directory), "{dir}"),
    }


def _write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if NEW_ARGPARSE:
        cases.update(json.loads(GOLDEN_313.read_text(encoding="utf-8")))
    return cases


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_cli_bytes_match_golden(name, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    monkeypatch.delenv("WHYDB_ORACLE_GUARD", raising=False)
    _write_files(tmp_path)
    argv, env = _cases()[name]
    assert _run(argv, tmp_path, env) == golden[name]


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    os.environ.pop("WHYDB_ORACLE_GUARD", None)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_files(directory)
        result = {
            name: _run(argv, directory, env) for name, (argv, env) in _cases().items()
        }
    path = GOLDEN
    if NEW_ARGPARSE:
        base = json.loads(GOLDEN.read_text(encoding="utf-8"))
        result = {name: case for name, case in result.items() if case != base[name]}
        path = GOLDEN_313
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    print(f"wrote {len(result)} cases to {path}", file=sys.stderr)
