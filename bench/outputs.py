"""Readers for whydb's CLI output, in both text and JSON form.

Each reader turns one command's stdout into the same plain value whatever
the form, so the two forms can be compared and then checked against the
benchmark's own computations. Facts are identified by tid; each reader also
records the rendered atom of every tid it meets in `atoms`, so the atoms can
be checked.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_RENDERED = re.compile(r"^(.*)#(\d+)$")
_CAUSE_LINE = re.compile(
    r"^(?P<fact>\S+#\d+): responsibility=(?P<rho>\S+) "
    r"counterfactual=(?P<cf>yes|no) most-responsible=(?P<mr>yes|no) "
    r"contingency-sets=\[(?P<sets>.*)\]$"
)
_RESP_LINE = re.compile(r"^responsibility\((?P<fact>\S+#\d+)\) = (?P<rho>\S+)$")
_FACT_LINE = re.compile(r"^[a-z][A-Za-z0-9_]*\((\d+),.*\)\.$")


class CheckError(Exception):
    """An output that does not match what the benchmark computed itself."""


def _fact(rendered: str, atoms: dict[int, str]) -> int:
    m = _RENDERED.match(rendered)
    if not m:
        raise CheckError(f"not a rendered fact: {rendered!r}")
    tid = int(m.group(2))
    if atoms.setdefault(tid, m.group(1)) != m.group(1):
        raise CheckError(f"tid {tid} rendered as {atoms[tid]!r} and {m.group(1)!r}")
    return tid


def _fact_set_text(text: str, atoms: dict[int, str]) -> frozenset[int]:
    if not (text.startswith("{") and text.endswith("}")):
        raise CheckError(f"not a fact set: {text!r}")
    inner = text[1:-1]
    return frozenset(_fact(part, atoms) for part in inner.split(", ")) if inner else frozenset()


def _fact_sets_text(text: str, atoms: dict[int, str]) -> list[frozenset[int]]:
    if not text:
        return []
    return [_fact_set_text(p if p.endswith("}") else p + "}", atoms) for p in text.split("}, ")]


def _rho_json(value) -> Fraction:
    if value == 0:
        return Fraction(0)
    return Fraction(value["num"], value["den"])


def causes(stdout: str, fmt: str, atoms: dict[int, str]) -> list[tuple]:
    """[(tid, responsibility, counterfactual, most_responsible, [sets])]."""
    out = []
    if fmt == "json":
        for c in json.loads(stdout)["causes"]:
            tid = _fact(f"{c['atom']}#{c['tid']}", atoms)
            sets = [frozenset(_fact(f, atoms) for f in g) for g in c["contingency_sets"]]
            out.append((tid, _rho_json(c["responsibility"]), c["counterfactual"],
                        c["most_responsible"], sets))
        return out
    for line in stdout.splitlines():
        m = _CAUSE_LINE.match(line)
        if not m:
            raise CheckError(f"unreadable causes line: {line[:120]!r}")
        out.append((_fact(m["fact"], atoms), Fraction(m["rho"]), m["cf"] == "yes",
                    m["mr"] == "yes", _fact_sets_text(m["sets"], atoms)))
    return out


def contingency(stdout: str, fmt: str, atoms: dict[int, str]) -> list[frozenset[int]]:
    if fmt == "json":
        doc = json.loads(stdout)
        _fact(f"{doc['atom']}#{doc['tid']}", atoms)
        return [frozenset(_fact(f, atoms) for f in g) for g in doc["contingency_sets"]]
    return [_fact_set_text(line, atoms) for line in stdout.splitlines()]


def responsibility(stdout: str, fmt: str, atoms: dict[int, str]) -> tuple[int, Fraction]:
    if fmt == "json":
        doc = json.loads(stdout)
        return _fact(f"{doc['atom']}#{doc['tid']}", atoms), _rho_json(doc["responsibility"])
    lines = stdout.splitlines()
    m = _RESP_LINE.match(lines[0]) if len(lines) == 1 else None
    if not m:
        raise CheckError(f"unreadable responsibility output: {stdout[:120]!r}")
    return _fact(m["fact"], atoms), Fraction(m["rho"])


def fact_list(stdout: str, fmt: str, atoms: dict[int, str], key: str) -> list[int]:
    """`counterfactual` and `most-responsible`: one fact per line, or a JSON
    list under `key`."""
    if fmt == "json":
        return [_fact(f, atoms) for f in json.loads(stdout)[key]]
    return [_fact(line, atoms) for line in stdout.splitlines()]


def query_answers(stdout: str, fmt: str) -> list[tuple[str, ...]]:
    if fmt == "json":
        doc = json.loads(stdout)
        if doc["boolean"]:
            raise CheckError("expected an open query")
        return [tuple(row) for row in doc["answers"]]
    rows = []
    for line in stdout.splitlines():
        if not (line.startswith("(") and line.endswith(")")):
            raise CheckError(f"unreadable answer line: {line!r}")
        rows.append(tuple(line[1:-1].split(",")))
    return rows


def repairs(stdout: str, fmt: str, atoms: dict[int, str], kind: str) -> list[tuple]:
    """[(deleted, retained)] as tid sets, in output order."""
    if fmt == "json":
        doc = json.loads(stdout)
        if doc["kind"] != kind:
            raise CheckError(f"repair kind {doc['kind']!r}, expected {kind!r}")
        return [
            (frozenset(_fact(f, atoms) for f in r["deleted"]),
             frozenset(_fact(f, atoms) for f in r["retained"]))
            for r in doc["repairs"]
        ]
    out = []
    prefix = f"{kind}-repair "
    for i, line in enumerate(stdout.splitlines(), start=1):
        head = f"{prefix}{i}: deleted "
        if not line.startswith(head) or " retained " not in line:
            raise CheckError(f"unreadable repair line: {line[:120]!r}")
        deleted, retained = line[len(head):].split(" retained ")
        out.append((_fact_set_text(deleted, atoms), _fact_set_text(retained, atoms)))
    return out


def asp_fact_tids(stdout: str, fmt: str) -> list[int]:
    """Tids of the fact lines of an emitted program, in order."""
    text = json.loads(stdout)["program"] if fmt == "json" else stdout
    lines = text.splitlines()
    try:
        start = lines.index("% facts") + 1
    except ValueError:
        raise CheckError("emitted program has no facts block") from None
    tids = []
    for line in lines[start:]:
        if line.startswith("%"):
            break
        m = _FACT_LINE.match(line)
        if not m:
            raise CheckError(f"unreadable fact line: {line!r}")
        tids.append(int(m.group(1)))
    return tids
