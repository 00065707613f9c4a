"""The CLI's text and JSON output against output built here from the
library's own results with `json.dumps`: causes, contingency sets and S- and
C-repairs, on the benchmark's chain instances, on FD conflicts, and on
inputs with exogenous tuples and with explicit tids out of file order; and
causes under a hard constraint on chain instances it holds in. A
repair's retained facts are cut from every fact joined once, so tid order,
not file order, must decide where each cut falls."""

import json
import random
from contextlib import redirect_stdout
from io import StringIO

import pytest

from whydb import (
    actual_causes,
    c_repairs,
    causes_under_ics,
    contingency_sets,
    load_instance,
    parse_constraints,
    parse_hard_constraints,
    parse_query,
    s_repairs,
)
from whydb.cli import main

from conftest import load_bench

CHAIN_QUERY = "q :- S(x), R(x,y), S(y)."
CHAIN_DC = ":- S(x), R(x,y), S(y)."
FD_QUERY = "q :- T(x,y), T(x,z), y != z."
FD_DC = "fd T: 1 -> 2."
ANCHOR = "R[1] <= S[1]."
chain_causes = load_bench("chain_causes")


def _chains(n):
    """chain-n in each of the benchmark's seeded fact orders, which include
    the one it runs (the median shuffle)."""
    return [
        "".join(f"{p}({','.join(args)}).\n" for p, args in facts)
        for _, facts in chain_causes.shuffles(n)
    ]


def _anchored(n):
    """chain-n in the order the benchmark runs, with only the R facts whose
    first constant is an S constant, so that it satisfies ANCHOR."""
    facts = chain_causes.instance(n)
    anchors = {args[0] for p, args in facts if p == "S"}
    kept = [(p, args) for p, args in facts if p == "S" or args[0] in anchors]
    return "".join(f"{p}({','.join(args)}).\n" for p, args in kept)


def _fd(k):
    """k keys with two values each under the FD, among clean keys, in a
    seeded order, the first conflict's first tuple exogenous."""
    facts = [f"T(k{i},a{i})." for i in range(k)] + [f"T(k{i},b{i})." for i in range(k)]
    facts += [f"T(c{i},v)." for i in range(k + 1)]
    random.Random(k).shuffle(facts)
    if k:
        facts[facts.index("T(k0,a0).")] = "@exo T(k0,a0)."
    return "\n".join(facts) + "\n"


# name: (facts, query, constraints)
CASES = {
    **{
        f"chain-{n}/{k}": (facts, CHAIN_QUERY, CHAIN_DC)
        for n in (30, 40, 42)
        for k, facts in enumerate(_chains(n))
    },
    **{f"fd-{k}": (_fd(k), FD_QUERY, FD_DC) for k in (0, 1, 2, 3, 7, 10)},
    "explicit-tids": ("P[7](a). Q[2](b).", "q :- P(x), Q(y).", ":- P(x), Q(y)."),
    "explicit-tids-exogenous": (
        "S[9](a4). R[2](a4,a3). @exo S[5](a3). R[12](a3,a3).\n"
        "S[1](a2). R[3](a2,a1). S[7](a1). @exo R[4](a1,a2).",
        CHAIN_QUERY,
        CHAIN_DC,
    ),
    "exogenous": ("@exo S(a3). R(a4,a3). R(a3,a3). S(a4).", CHAIN_QUERY, CHAIN_DC),
}
# under ANCHOR, which keeps 2 of their 165, 486 and 1150 S-repairs
ANCHORED = {
    f"chain-{n}-anchored": (_anchored(n), CHAIN_QUERY, CHAIN_DC) for n in (30, 40, 42)
}


def _output(tmp_path, name, argv) -> list[str]:
    """The command's stdout as lines with their ends, which keeps a failing
    comparison cheap to explain where one line holds a whole cause."""
    facts, query, constraints = CASES[name] if name in CASES else ANCHORED[name]
    for key, text in (("{db}", facts), ("{dc}", constraints), ("{hard}", ANCHOR)):
        path = tmp_path / key.strip("{}")
        path.write_text(text)
        argv = [a.replace(key, str(path)) for a in argv]
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue().splitlines(keepends=True)


def _texts(inst, tids):
    return [inst.fact(t).render() for t in sorted(tids)]


def _braced(inst, tids):
    return "{" + ", ".join(_texts(inst, tids)) + "}"


def _rho(value):
    return 0 if value == 0 else {"num": value.numerator, "den": value.denominator}


def _json(doc):
    return (json.dumps({"schema": 1, **doc}, indent=2) + "\n").splitlines(keepends=True)


def _lines(lines):
    return [line + "\n" for line in lines]


def _check_causes(tmp_path, name, argv, inst, reports):
    """`causes` prints `reports`, built from their contingency sets, as
    text and as JSON."""
    assert _output(tmp_path, name, argv) == _lines(
        f"{inst.fact(r.tid).render()}: responsibility={r.responsibility} "
        f"counterfactual={'yes' if r.is_counterfactual else 'no'} "
        f"most-responsible={'yes' if r.is_most_responsible else 'no'} "
        "contingency-sets=["
        + ", ".join(_braced(inst, g) for g in r.minimal_contingency_sets)
        + "]"
        for r in reports
    )
    assert _output(tmp_path, name, [*argv, "--format", "json"]) == _json(
        {
            "causes": [
                {
                    "tid": r.tid,
                    "atom": inst.fact(r.tid).atom_text(),
                    "responsibility": _rho(r.responsibility),
                    "counterfactual": r.is_counterfactual,
                    "most_responsible": r.is_most_responsible,
                    "contingency_sets": [
                        _texts(inst, g) for g in r.minimal_contingency_sets
                    ],
                }
                for r in reports
            ]
        }
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_causes_and_contingency_are_the_library_results(tmp_path, name):
    facts, query, _ = CASES[name]
    inst, q = load_instance(facts), parse_query(query)
    reports = actual_causes(inst, q)
    base = ["--db", "{db}", "-q", query]
    _check_causes(tmp_path, name, ["causes", *base], inst, reports)
    # the cause with the most contingency sets, and the smallest endogenous
    # tid that is no cause
    most = sorted(reports, key=lambda r: -len(r.minimal_contingency_sets))[:1]
    others = sorted(inst.endogenous_tids - {r.tid for r in reports})[:1]
    for t in [r.tid for r in most] + others:
        sets = contingency_sets(inst, q, t)
        argv = ["contingency", *base, "--tid", str(t)]
        assert _output(tmp_path, name, argv) == _lines(_braced(inst, g) for g in sets)
        assert _output(tmp_path, name, [*argv, "--format", "json"]) == _json(
            {
                "tid": t,
                "atom": inst.fact(t).atom_text(),
                "contingency_sets": [_texts(inst, g) for g in sets],
            }
        )


@pytest.mark.parametrize("name", sorted(ANCHORED))
def test_causes_under_a_hard_constraint_are_the_library_results(tmp_path, name):
    facts, query, _ = ANCHORED[name]
    inst, q = load_instance(facts), parse_query(query)
    reports = causes_under_ics(inst, q, parse_hard_constraints(ANCHOR))
    assert reports and all(len(r.minimal_contingency_sets) <= 2 for r in reports)
    argv = ["causes", "--db", "{db}", "-q", query, "--hard", "{hard}"]
    _check_causes(tmp_path, name, argv, inst, reports)


@pytest.mark.parametrize("kind", ["s", "c"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_repairs_are_the_library_results(tmp_path, name, kind):
    facts, _, constraints = CASES[name]
    inst = load_instance(facts)
    reps = (c_repairs if kind == "c" else s_repairs)(
        inst, parse_constraints(constraints, inst)
    )
    argv = ["repairs", "--db", "{db}", "--constraints", "{dc}", "--kind", kind]
    assert _output(tmp_path, name, argv) == _lines(
        f"{kind}-repair {i}: deleted {_braced(inst, r.deleted)} "
        f"retained {_braced(inst, r.retained)}"
        for i, r in enumerate(reps, start=1)
    )
    assert _output(tmp_path, name, [*argv, "--format", "json"]) == _json(
        {
            "kind": kind,
            "repairs": [
                {
                    "deleted": _texts(inst, r.deleted),
                    "retained": _texts(inst, r.retained),
                }
                for r in reps
            ],
        }
    )
