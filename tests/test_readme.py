"""The README's Quick start and Library examples, run as they are written,
so the documented output cannot drift from what whydb prints."""

import shlex
from fractions import Fraction
from pathlib import Path

from whydb import CauseReport, DiffSet, Repair
from whydb.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading):
    """The lines of the first fenced code block under a `## heading`."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(f"\n## {heading}\n") :]
    start = rest.index("\n", rest.index("```")) + 1
    return rest[start : rest.index("\n```", start)].splitlines()


def test_quick_start_causes_output(tmp_path, monkeypatch, capsys):
    cat, facts, blank, command, *want = _block("Quick start")
    assert cat == "$ cat ex1.facts" and blank == ""
    (tmp_path / "ex1.facts").write_text(facts + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    prompt, program, *argv = shlex.split(command)
    assert (prompt, program) == ("$", "whydb")
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_library_comments_name_the_values():
    """Each commented call in the Library block gives the value its
    comment names; the other lines run as setup."""
    scope, got = {}, {}
    for line in _block("Library"):
        code, _, comment = line.partition("  # ")
        if comment:
            got[comment.strip()] = eval(code, scope)
        else:
            exec(code, scope)
    assert got.pop("True") is True
    repairs = got.pop("three Repair values")
    assert len(repairs) == 3 and all(type(r) is Repair for r in repairs)
    reports = got.pop("CauseReport list, exact Fractions")
    assert reports and all(type(r) is CauseReport for r in reports)
    assert all(type(r.responsibility) is Fraction for r in reports)
    assert got.pop("Fraction(1, 1)") == Fraction(1, 1)
    diffs = got.pop("deletion differences containing tid 1")
    assert all(type(d) is DiffSet for d in diffs)
    assert [sorted(d.deleted) for d in diffs] == [[1, 3]]
    assert got.pop("[6]") == [6]
    assert got == {}
