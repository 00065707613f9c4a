"""The emitted ASP text over the seeded corpus, pinned by hash.

For each dialect, each option set and each hard-constraint set, one sha256
covers every corpus case: the program text, dialect and predicate map, or
the error type and message. The expected hashes live in
golden/asp_corpus.json. Regenerate them, only when a change of the emitted
text is intended, with

    PYTHONPATH=src python tests/test_asp_corpus.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from corpus import PRED_SPACE, corpus
from whydb import (
    emit_causality_program,
    emit_repair_program,
    load_instance,
    negate_query,
    parse_constraints,
    parse_hard_constraints,
    parse_query,
)
from whydb.asp import AspDialect, CausalityOptions
from whydb.errors import WhydbError

GOLDEN = Path(__file__).parent / "golden" / "asp_corpus.json"

# (facts, query) cases the random corpus does not reach: variables that
# clash with tid variables, and constants that need quotes
EXTRA = (
    ("P(a). Q(a,b).", "q :- P(t1), Q(t1,vt1), vt1 != t2, Q(t2,v)."),
    ("P(A4). P(9lives). Q(x_y,b). R(a,b,c).", 'q :- P("A4"), Q(x,"9lives"), R(x,y,z).'),
    ('P(a"b). P(c\\d).', 'q :- P(x), P(y), x != y.'),
)
CONSTRAINTS = (
    ":- P(x), Q(x,y), y != \"a\".\n"
    "fd Q: 1 -> 2.\n"
    "fd R: 1,2 -> 3.\n"
    "fd R: 3 -> 1.\n"
    ":- R(x,y,z), R(y,z,x), P(z)."
)
HARD = {
    "none": "",
    "referential": "Q[1] <= P[1].",
    "mixed": "R[1,3] <= Q[2,1].\n:- P(x), Q(x,y), x != y.\nQ[2] <= P[1].",
    "unknown-arity": "Z[1] <= P[1].",
    "position-out-of-range": "P[2] <= Q[1].",
    "arity-clash": ":- P(x,y).",
    "two-failing": ":- Q(x).\nW[1] <= P[1].",
    "reserved-aux": ":- Aux(x), P(x).\nP[1] <= P[1].",
    "reserved-cause": ":- Cause(x,y).",
}
FLAGS = ("cause_rules", "contingency_union", "responsibility_rules", "weak_constraints")
OPTIONS = {
    "".join("1" if on else "0" for on in bits): dict(zip(FLAGS, bits))
    for bits in itertools.product((True, False), repeat=len(FLAGS))
}


def _cases():
    cases = list(corpus())
    cases += [(load_instance(facts), parse_query(q)) for facts, q in EXTRA]
    return cases


def _outcome(emit) -> list:
    try:
        program = emit()
    except WhydbError as exc:
        return [type(exc).__name__, str(exc)]
    return [program.text, program.dialect.value, sorted(program.predicate_map.items())]


def _digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def compute() -> dict[str, str]:
    cases = _cases()
    cs = parse_constraints(CONSTRAINTS, dict(PRED_SPACE))
    out = {}
    for dialect in AspDialect:
        d = dialect.value
        out[f"{d}/repair/negated-query"] = _digest(
            _outcome(lambda: emit_repair_program(inst, negate_query(q), dialect))
            for inst, q in cases
        )
        out[f"{d}/repair/constraints"] = _digest(
            _outcome(lambda: emit_repair_program(inst, cs, dialect))
            for inst, _ in cases
        )
        for (hard_name, text), (flags, kw) in itertools.product(
            HARD.items(), OPTIONS.items()
        ):
            opts = CausalityOptions(
                hard_constraints=tuple(parse_hard_constraints(text)), **kw
            )
            out[f"{d}/causality/{flags}/{hard_name}"] = _digest(
                _outcome(lambda: emit_causality_program(inst, q, dialect, opts))
                for inst, q in cases
            )
    return out


def test_emitted_programs_match_pin():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute()
    assert sorted(got) == sorted(golden)
    assert [k for k in sorted(got) if got[k] != golden[k]] == []


def test_pin_reaches_every_hard_constraint_error():
    """Each error of the hard-constraint checks is among the pinned
    outcomes; with two failing constraints, the first one is reported."""
    messages = set()
    for text in HARD.values():
        opts = CausalityOptions(hard_constraints=tuple(parse_hard_constraints(text)))
        for inst, q in _cases():
            outcome = _outcome(
                lambda: emit_causality_program(inst, q, AspDialect.EXTENDED, opts)
            )
            if len(outcome) == 2:
                messages.add(outcome[1])
    for prefix in (
        "unknown arity for predicate 'Z'",
        "unknown arity for predicate 'W'",
        "position 2 out of range for P/1",
        "arity clash for P: 1 vs 2",
        "arity clash for Q: 2 vs 1",
        "predicate Aux collides with the reserved emitted name 'aux'",
        "predicate Cause collides with the reserved emitted name 'cause'",
    ):
        assert any(m.startswith(prefix) for m in messages), prefix


@pytest.mark.parametrize("dialect", list(AspDialect))
def test_causality_program_starts_with_the_repair_program(dialect):
    for inst, q in _cases():
        repair = emit_repair_program(inst, negate_query(q), dialect)
        causality = emit_causality_program(inst, q, dialect, CausalityOptions())
        body = repair.text.splitlines()[2:]
        lines = causality.text.splitlines()
        assert lines[2 : 2 + len(body)] == body
        assert lines[2 + len(body)] == "% cause rules"
        assert causality.predicate_map == repair.predicate_map


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
