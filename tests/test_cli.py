import gc
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whydb
from whydb import (
    Fact,
    Instance,
    actual_causes,
    brute_causes,
    contingency_sets,
    load_instance,
    parse_constraints,
    parse_query,
    s_repairs,
)
from whydb import cli
from whydb.cli import (
    _encoded,
    _FactSets,
    _FactTable,
    _json_pieces,
    _Repair,
    build_parser,
    main,
)
from whydb.core import is_constant

from conftest import D2STAR_TEXT, DSTAR_TEXT, K12_TEXT, QSTAR_TEXT, load_bench
from test_cli_golden import GOLDEN, _cases, _write_files


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "dstar.facts": DSTAR_TEXT,
        "d2star.facts": D2STAR_TEXT,
        "kq.dc": ":- S(x), R(x,y), S(y).",
        "k12.dc": K12_TEXT,
        "qstar.q": QSTAR_TEXT,
        "hard.ref": "R[1] <= S[1].",
        "empty.facts": "",
        "broken.facts": "P(a",
        "exo.facts": "@exo S(a3). @exo R(a3,a3).",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(whydb.__file__).resolve().parent.parent


def _whydb_process(argv, stderr=subprocess.PIPE, **popen):
    """`python -m whydb argv` in a fresh process with piped stdout and
    stderr (or stderr as given), help wrapped at 80 columns; `popen` goes
    on to subprocess.Popen."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    env.pop("WHYDB_ORACLE_GUARD", None)
    return subprocess.Popen(
        [sys.executable, "-m", "whydb", *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=stderr, **popen,
    )


def run_alone(argv):
    with _whydb_process(argv) as proc:
        out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


def test_causes_text(files, capsys):
    code, out, err = run(
        capsys, ["causes", "--db", files["dstar.facts"], "-q", QSTAR_TEXT]
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("S(a3)#6: responsibility=1 ")
    assert "counterfactual=yes" in lines[0] and "most-responsible=yes" in lines[0]
    assert lines[1].startswith("R(a4,a3)#1: responsibility=1/2 ")
    assert "contingency-sets=[{R(a3,a3)#3}]" in lines[1]
    assert len(lines) == 4


def test_causes_json(files, capsys):
    code, out, _ = run(
        capsys,
        ["causes", "--db", files["dstar.facts"], "-q", QSTAR_TEXT, "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["causes"][0] == {
        "tid": 6,
        "atom": "S(a3)",
        "responsibility": {"num": 1, "den": 1},
        "counterfactual": True,
        "most_responsible": True,
        "contingency_sets": [[]],
    }
    assert {c["responsibility"]["den"] for c in doc["causes"][1:]} == {2}


def test_causes_empty_result(files, capsys):
    code, out, err = run(
        capsys, ["causes", "--db", files["empty.facts"], "-q", "q :- S(x)."]
    )
    assert code == 0 and out == "" and err == ""


def test_repairs_s_kind(files, capsys):
    code, out, _ = run(
        capsys,
        ["repairs", "--db", files["dstar.facts"], "--constraints", files["kq.dc"]],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == (
        "s-repair 1: deleted {S(a3)#6} retained "
        "{R(a4,a3)#1, R(a2,a1)#2, R(a3,a3)#3, S(a4)#4, S(a2)#5}"
    )


def test_repairs_c_kind_example_two(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "repairs",
            "--db",
            files["d2star.facts"],
            "--constraints",
            files["k12.dc"],
            "--kind",
            "c",
        ],
    )
    assert code == 0
    assert out.splitlines() == [
        "c-repair 1: deleted {P(a)#1} retained {P(e)#2, Q(a,b)#3, R(a,c)#4}"
    ]


def test_repairs_json_roundtrips(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "repairs",
            "--db",
            files["dstar.facts"],
            "--constraints",
            files["kq.dc"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["kind"] == "s"
    assert [r["deleted"] for r in doc["repairs"]] == [
        ["S(a3)#6"],
        ["R(a4,a3)#1", "R(a3,a3)#3"],
        ["R(a3,a3)#3", "S(a4)#4"],
    ]


def test_contingency_command(files, capsys):
    code, out, _ = run(
        capsys,
        ["contingency", "--db", files["dstar.facts"], "-q", QSTAR_TEXT, "--tid", "1"],
    )
    assert code == 0
    assert out == "{R(a3,a3)#3}\n"


def test_responsibility_command(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "responsibility",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--tid",
            "6",
        ],
    )
    assert code == 0
    assert out == "responsibility(S(a3)#6) = 1\n"
    code, out, _ = run(
        capsys,
        [
            "responsibility",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--tid",
            "2",
            "--format",
            "json",
        ],
    )
    assert json.loads(out)["responsibility"] == 0


def test_counterfactual_and_most_responsible(files, capsys):
    for command in ["counterfactual", "most-responsible"]:
        code, out, _ = run(
            capsys, [command, "--db", files["dstar.facts"], "-q", QSTAR_TEXT]
        )
        assert code == 0
        assert out == "S(a3)#6\n"


# Explicit tids with gaps, out of order, and exogenous facts.
GAPPY_TEXT = """S[12](a3).
R[3](a4,a3).
@exo R[40](a3,a3).
S[7](a4).
R[25](a2,a1).
S[9](a2).
@exo S[31](a1).
R[18](a3,a2).
"""
KQ_TEXT = ":- S(x), R(x,y), S(y)."


@pytest.fixture
def gappy(tmp_path):
    db, dc = tmp_path / "gappy.facts", tmp_path / "kq.dc"
    db.write_text(GAPPY_TEXT)
    dc.write_text(KQ_TEXT)
    return str(db), str(dc), load_instance(GAPPY_TEXT)


def _rendered(inst, tids):
    return [inst.fact(t).render() for t in sorted(tids)]


def _rendered_set(inst, tids):
    return "{" + ", ".join(_rendered(inst, tids)) + "}"


def test_printed_facts_are_the_instance_facts_in_tid_order(gappy, capsys):
    db, dc, inst = gappy
    q = parse_query(QSTAR_TEXT)
    reps = s_repairs(inst, parse_constraints(KQ_TEXT, inst))
    _, out, _ = run(capsys, ["repairs", "--db", db, "--constraints", dc])
    assert out.splitlines() == [
        f"s-repair {i}: deleted {_rendered_set(inst, r.deleted)} "
        f"retained {_rendered_set(inst, r.retained)}"
        for i, r in enumerate(reps, start=1)
    ]
    _, out, _ = run(
        capsys, ["repairs", "--db", db, "--constraints", dc, "--format", "json"]
    )
    assert json.loads(out)["repairs"] == [
        {"deleted": _rendered(inst, r.deleted), "retained": _rendered(inst, r.retained)}
        for r in reps
    ]

    reports = actual_causes(inst, q)
    assert len(reports) > 1
    _, out, _ = run(capsys, ["causes", "--db", db, "-q", QSTAR_TEXT])
    for line, r in zip(out.splitlines(), reports, strict=True):
        assert line.startswith(inst.fact(r.tid).render() + ": ")
        sets = ", ".join(_rendered_set(inst, g) for g in r.minimal_contingency_sets)
        assert line.endswith(f"contingency-sets=[{sets}]")
    _, out, _ = run(capsys, ["causes", "--db", db, "-q", QSTAR_TEXT, "--format", "json"])
    assert [c["contingency_sets"] for c in json.loads(out)["causes"]] == [
        [_rendered(inst, g) for g in r.minimal_contingency_sets] for r in reports
    ]

    for r in reports:
        sets = contingency_sets(inst, q, r.tid)
        argv = ["contingency", "--db", db, "-q", QSTAR_TEXT, "--tid", str(r.tid)]
        _, out, _ = run(capsys, argv)
        assert out.splitlines() == [_rendered_set(inst, g) for g in sets]
        _, out, _ = run(capsys, argv + ["--format", "json"])
        assert json.loads(out)["contingency_sets"] == [_rendered(inst, g) for g in sets]


def test_each_printed_fact_is_rendered_once(gappy, capsys, monkeypatch):
    db, dc, inst = gappy
    renders = Counter()
    render = Fact.render

    def counted(fact):
        renders[fact.tid] += 1
        return render(fact)

    monkeypatch.setattr(Fact, "render", counted)
    causes = [r.tid for r in actual_causes(inst, parse_query(QSTAR_TEXT))]
    commands = [
        ["repairs", "--constraints", dc],
        ["repairs", "--constraints", dc, "--kind", "c"],
        ["causes", "-q", QSTAR_TEXT],
        ["counterfactual", "-q", QSTAR_TEXT],
        ["most-responsible", "-q", QSTAR_TEXT],
    ] + [
        [command, "-q", QSTAR_TEXT, "--tid", str(t)]
        for command in ("contingency", "responsibility")
        for t in causes
    ]
    for command in commands:
        for fmt in ("text", "json"):
            renders.clear()
            code, out, _ = run(capsys, [*command, "--db", db, "--format", fmt])
            assert code == 0, command
            printed = {int(t) for t in re.findall(r"#(\d+)", out)}
            assert max(renders.values(), default=0) <= 1, (command, fmt, renders)
            assert set(renders) <= printed, (command, fmt, renders, printed)


def test_causes_prints_contingency_sets_without_building_them(
    files, tmp_path, capsys, monkeypatch
):
    """`causes` prints each contingency set from the S-repair difference
    it is cut from, so no report's `minimal_contingency_sets` is built: on
    the benchmark's chain-42 instance (10 060 sets) and under --hard."""
    chain = tmp_path / "chain.facts"
    facts = load_bench("chain_causes").instance(42)
    chain.write_text("".join(f"{p}({','.join(a)}).\n" for p, a in facts))
    seen = []
    for name in ("actual_causes", "causes_under_ics"):

        def kept(*args, found=getattr(cli, name)):
            reports = found(*args)
            seen.extend(reports)
            return reports

        monkeypatch.setattr(cli, name, kept)
    for sources in (
        ["--db", str(chain)],
        ["--db", files["dstar.facts"], "--hard", files["hard.ref"]],
    ):
        for fmt in ("text", "json"):
            seen.clear()
            argv = ["causes", *sources, "-q", QSTAR_TEXT, "--format", fmt]
            code, out, _ = run(capsys, argv)
            assert code == 0 and out and seen
            assert not [r.tid for r in seen if "minimal_contingency_sets" in vars(r)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_causes_prints_built_reports_as_listed_ones(gappy, capsys, monkeypatch, fmt):
    """A report built from its contingency sets, as the oracle builds them,
    prints as the listed report with the same values."""
    argv = ["causes", "--db", gappy[0], "-q", QSTAR_TEXT, "--format", fmt]
    listed = run(capsys, argv)
    assert listed[0] == 0 and listed[1]
    monkeypatch.setattr(cli, "actual_causes", brute_causes)
    assert run(capsys, argv) == listed


# Strings holding what JSON escapes: quotes, backslashes and control
# characters, and under ensure_ascii also non-ASCII, astral characters (as
# surrogate pairs) and lone surrogates.
_JSON_STRINGS = st.text(
    st.one_of(
        st.characters(),
        st.characters(categories=("Cs",)),
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600\ud800\udfff'),
    ),
    max_size=6,
)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 10**40, -(10**40)])
    | _JSON_STRINGS
)


@st.composite
def _json_values(draw):
    """A value of the kinds handlers return, and the instance its tid sets
    are drawn from: facts P(c), with constants that hold what JSON escapes
    and tids out of file order. Its leaves are scalars, repairs (`_Repair`:
    a tid set and every other fact) and lists of tid sets (`_FactSets`,
    some with a tid left out, in the sets or not, some with none)."""
    constants = draw(
        st.lists(_JSON_STRINGS.filter(is_constant), min_size=1, max_size=5, unique=True)
    )
    tids = draw(
        st.lists(st.integers(1, 40), min_size=len(constants), max_size=len(constants),
                 unique=True)
    )
    inst = Instance(Fact("P", (c,), t) for c, t in zip(constants, tids))
    table = _FactTable(inst)
    tid_sets = st.frozensets(st.sampled_from(tids))
    facts = (
        st.builds(_Repair, tid_sets, st.just(table))
        | st.builds(
            _FactSets,
            st.lists(tid_sets, max_size=4),
            st.just(table),
            st.none() | st.sampled_from(tids),
        )
    )
    value = st.recursive(
        _JSON_SCALARS | facts,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(_JSON_STRINGS, max_size=4)
        | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
        max_leaves=24,
    )
    return inst, draw(value)


def _plain(inst, value):
    """`value` with each `_FactSets` as the lists of fact texts it stands
    for, and each `_Repair` as the dict of its deleted and retained facts'
    texts."""

    def texts(tids):
        return [inst.fact(t).render() for t in sorted(tids)]

    if isinstance(value, _Repair):
        return {"deleted": texts(value.deleted), "retained": texts(inst.tids - value.deleted)}
    if isinstance(value, _FactSets):
        return [texts(g - {value.without}) for g in value.sets]
    if isinstance(value, list):
        return [_plain(inst, item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(inst, item) for key, item in value.items()}
    return value


def _json_text(value) -> str:
    return "".join(_json_pieces(value, _encoded()))


@settings(deadline=None, max_examples=300)
@given(_json_values())
def test_json_pieces_are_json_dumps(case):
    # tid sets are written as their facts' texts, and a document's list
    # fields one item per piece: the bytes are still json.dumps's
    inst, value = case
    assert _json_text(value) == json.dumps(_plain(inst, value), indent=2)


@st.composite
def _cut_cases(draw):
    """An instance of facts P(c), with constants that JSON escapes and tids
    out of file order, and a tid set of it: drawn at random, or none, every
    one, the first, the last, or two adjacent tids."""
    constants = draw(
        st.lists(_JSON_STRINGS.filter(is_constant), min_size=1, max_size=6, unique=True)
    )
    tids = draw(
        st.lists(st.integers(1, 40), min_size=len(constants), max_size=len(constants),
                 unique=True)
    )
    inst = Instance(Fact("P", (c,), t) for c, t in zip(constants, tids))
    order = sorted(tids)
    chosen = draw(
        st.frozensets(st.sampled_from(tids))
        | st.sampled_from([(), order, order[:1], order[-1:]]).map(frozenset)
        | st.integers(0, len(order) - 1).map(lambda i: frozenset(order[i : i + 2]))
    )
    return inst, chosen


@settings(deadline=None, max_examples=300)
@given(_cut_cases())
def test_cut_sets_are_the_plain_joins(case):
    """A repair's deleted and retained facts, and a cause's contingency sets
    cut out of its S-repair difference (each tid of the set left out in
    turn, on one table, a tid outside it, and none, as `contingency` prints
    them), in text and JSON, are the plain joins of the sorted texts of the
    facts they stand for."""
    inst, chosen = case
    table = _FactTable(inst)

    def texts(tids):
        return [inst.fact(t).render() for t in sorted(tids)]

    rest = inst.tids - chosen
    plain = (", ".join(texts(chosen)), ", ".join(texts(rest)))
    assert table.split(chosen, table.text, ", ") == plain
    assert _Repair(chosen, table).json("\n") == json.dumps(
        {"deleted": texts(chosen), "retained": texts(rest)}, indent=2
    )
    for left_out in (*sorted(chosen), max(inst.tids) + 1, None):
        sets = _FactSets([chosen, chosen], table, left_out)
        kept = texts(chosen - {left_out})
        assert list(sets) == ["{" + ", ".join(kept) + "}"] * 2
        assert sets.json("\n") == json.dumps([kept, kept], indent=2)


class _Pieces:
    """Stands in for stdout: keeps every piece written."""

    def __init__(self):
        self.pieces = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_json_writes_one_piece_per_repair_and_per_cause(files):
    # the pieces: `{"schema": 1`, one per further field before the list,
    # the list's key, one per item, the list's and the document's closing
    # brackets, and the final newline
    db = files["dstar.facts"]
    for argv, items in (
        (["repairs", "--constraints", files["kq.dc"]], "repairs"),
        (["repairs", "--constraints", files["kq.dc"], "--kind", "c"], "repairs"),
        (["causes", "-q", QSTAR_TEXT], "causes"),
    ):
        sink = _Pieces()
        with redirect_stdout(sink):
            assert main([*argv, "--db", db, "--format", "json"]) == 0
        doc = json.loads("".join(sink.pieces))
        assert len(sink.pieces) == len(doc) + len(doc[items]) + 3, argv


def _rule_pieces(doc: dict) -> list[str]:
    """The pieces the JSON writer's rule gives for `doc`: one per field, with
    the punctuation before it; a non-empty list field as its key, one piece
    per item and its closing bracket; then the document's closing bracket
    and the final newline. A list of fact sets (`contingency_sets`) is a
    list field, with one piece per set."""
    pieces, sep = [], "{\n  "
    for key, value in doc.items():
        head = sep + json.dumps(key) + ": "
        sep = ",\n  "
        if isinstance(value, list) and value:
            pieces.append(head)
            pieces += [
                ("[" if i == 0 else ",") + "\n    "
                + json.dumps(item, indent=2).replace("\n", "\n    ")
                for i, item in enumerate(value)
            ]
            pieces.append("\n  ]")
        else:
            pieces.append(head + json.dumps(value, indent=2).replace("\n", "\n  "))
    return [*pieces, "\n}", "\n"]


def test_json_pieces_follow_the_rule_in_every_golden_case(tmp_path, monkeypatch):
    # every JSON case of the CLI goldens: its pieces make up the golden
    # bytes, and they are the pieces of the one rule
    monkeypatch.delenv("WHYDB_ORACLE_GUARD", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    _write_files(tmp_path)
    cases = {name: case for name, case in _cases().items() if name.endswith(".json")}
    assert len(cases) == 75
    for name, (argv, env) in cases.items():
        sink = _Pieces()
        with patch.dict(os.environ, env), redirect_stdout(sink):
            code = main([a.replace("{dir}", str(tmp_path)) for a in argv])
        out = "".join(sink.pieces)
        assert (code, out) == (golden[name]["exit"], golden[name]["stdout"]), name
        assert sink.pieces == (_rule_pieces(json.loads(out)) if out else []), name


@pytest.mark.parametrize(
    "value",
    [1.5, ["a", 1.5], (1,), ["a", ("b",)], {1: "a"}, {"a": [{("b",): 1}]}, b"a"],
)
def test_json_pieces_reject_what_handlers_never_return(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_json_pieces_encode_each_string_once(monkeypatch):
    calls = Counter()
    encode = cli.encode_basestring_ascii

    def counted(text):
        calls[text] += 1
        return encode(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counted)
    doc = {"a": ["x", "y"], "b": [{"a": "x"}, ["y", "x"], "b"], "x": "a"}
    assert _json_text(doc) == json.dumps(doc, indent=2)
    assert calls == Counter({"a": 1, "b": 1, "x": 1, "y": 1})


def test_golden_json_documents_are_json_dumps():
    golden = json.loads(
        (Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8")
    )
    outs = [
        case["stdout"]
        for name, case in golden.items()
        if name.endswith(".json") and case["stdout"]
    ]
    assert len(outs) >= 60
    for out in outs:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _fd_pairs(tmp_path, pairs: int, clean: int) -> tuple[str, str]:
    """Fact and FD files: `pairs` keys with two values under `fd T: 1 -> 2.`,
    so 2**pairs S-repairs, and `clean` keys with one."""
    db = tmp_path / "pairs.facts"
    db.write_text(
        "".join(f"T(k{i},a{i}). T(k{i},b{i}).\n" for i in range(pairs))
        + "".join(f"T(c{i},v).\n" for i in range(clean))
    )
    fds = tmp_path / "fd.dc"
    fds.write_text("fd T: 1 -> 2.")
    return str(db), str(fds)


class _CountingSink:
    """Stands in for stdout: counts the characters written, keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_json_output_is_streamed(tmp_path):
    # 512 S-repairs of 109 facts: the JSON document, about 1.4 MB, is not
    # held whole, so its peak memory is near the text form's, whose lines
    # are printed one by one
    db, fds = _fd_pairs(tmp_path, 9, 100)
    peaks, chars = {}, {}
    for fmt in ("text", "json"):
        argv = ["repairs", "--db", db, "--constraints", fds, "--format", fmt]
        with redirect_stdout(_CountingSink()):
            assert main(argv) == 0  # imports and the parser, before tracing
        sink = _CountingSink()
        with redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chars[fmt] = sink.chars
    assert chars["json"] > 1_000_000 and chars["text"] > 500_000, chars
    assert peaks["json"] <= 1.5 * peaks["text"], peaks


def test_json_causes_are_streamed(tmp_path):
    # chain-42's causes as JSON, 2.1 MB: each cause is rendered as it is
    # written, and each S-repair difference's text is kept once for all its
    # causes. The peak is about 2.4 MB; rendering every cause before the
    # first write takes it to about 4.2 MB
    chain = tmp_path / "chain.facts"
    facts = load_bench("chain_causes").instance(42)
    chain.write_text("".join(f"{p}({','.join(a)}).\n" for p, a in facts))
    argv = ["causes", "--db", str(chain), "-q", QSTAR_TEXT, "--format", "json"]
    with redirect_stdout(_CountingSink()):
        assert main(argv) == 0  # imports and the parser, before tracing
    sink = _CountingSink()
    with redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.chars > 2_000_000, sink.chars
    assert peak < 3_000_000, peak


def test_query_command(files, capsys):
    code, out, _ = run(capsys, ["query", "--db", files["dstar.facts"], "-q", QSTAR_TEXT])
    assert code == 0 and out == "true\n"
    code, out, _ = run(
        capsys,
        ["query", "--db", files["dstar.facts"], "-q", "q(x) :- S(x), R(x,y), S(y)."],
    )
    assert code == 0 and out == "(a3)\n(a4)\n"


def test_emit_asp_repair(files, capsys):
    code, out, _ = run(
        capsys,
        ["emit-asp", "--db", files["dstar.facts"], "--constraints", files["kq.dc"]],
    )
    assert code == 0
    assert "% dialect: core_disjunctive" in out
    assert "s_x(T1,X,d) | r_x(T2,X,Y,d) | s_x(T3,Y,d)" in out


def test_emit_asp_causality_with_hard(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "emit-asp",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--hard",
            files["hard.ref"],
        ],
    )
    assert code == 0
    assert "aux(X) :- s_x(Tp,X,s)." in out
    assert ":- r_x(T,X,Y,s), not aux(X)." in out


def test_position_out_of_range_is_one_error_for_every_command(files, tmp_path, capsys):
    # emit-asp and oracle-check reach the same check, with one error text
    hard = tmp_path / "wide.ref"
    hard.write_text("S[2] <= R[1].")
    base = ["--db", files["dstar.facts"], "-q", QSTAR_TEXT, "--hard", str(hard)]
    for command in ("emit-asp", "oracle-check", "causes"):
        code, out, err = run(capsys, [command, *base])
        assert (code, out, err) == (1, "", "error: position 2 out of range for S/1\n")


def test_emit_asp_needs_exactly_one_source(files, capsys):
    code, _, err = run(capsys, ["emit-asp", "--db", files["dstar.facts"]])
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys,
        [
            "emit-asp",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--constraints",
            files["kq.dc"],
        ],
    )
    assert code == 2


CAUSALITY_ONLY = (
    "--hard", "--no-cause-rules", "--contingency-union", "--responsibility-rules",
    "--weak-constraints",
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flag", CAUSALITY_ONLY)
def test_emit_asp_repair_program_refuses_causality_options(files, capsys, flag, fmt):
    # a repair program reads none of these options, so naming one is a
    # usage error, not an option silently ignored
    argv = ["emit-asp", "--db", files["dstar.facts"], "--constraints", files["kq.dc"]]
    option = [flag, files["hard.ref"]] if flag == "--hard" else [flag]
    code, out, err = run(capsys, [*argv, *option, "--format", fmt])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} applies to causality programs only\n"


def test_emit_asp_names_the_first_causality_option_in_help_order(files, capsys):
    argv = ["emit-asp", "--db", files["dstar.facts"], "--constraints", files["kq.dc"]]
    code, out, err = run(capsys, [*argv, "--weak-constraints", "--no-cause-rules"])
    assert (code, out) == (2, "")
    assert err == "error: --no-cause-rules applies to causality programs only\n"


def test_source_arguments_are_checked_before_the_db_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.facts")
    for argv, message in [
        (["emit-asp", "--db", missing], "emit-asp needs exactly one of"),
        (["emit-asp", "--db", missing, "-q", QSTAR_TEXT, "--constraints", missing],
         "emit-asp needs exactly one of"),
        (["emit-asp", "--db", missing, "--constraints", missing, "--hard", missing],
         "--hard applies to causality programs only"),
        (["emit-asp", "--db", missing, "--constraints", missing, "--weak-constraints"],
         "--weak-constraints applies to causality programs only"),
        (["oracle-check", "--db", missing], "oracle-check needs a query"),
    ]:
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_oracle_check_agrees(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "oracle-check",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--constraints",
            files["kq.dc"],
        ],
    )
    assert code == 0
    assert out.splitlines() == [
        "s-repairs: OK",
        "c-repairs: OK",
        "s-repairs: OK",
        "c-repairs: OK",
        "causes: OK",
    ]


def test_oracle_check_with_hard(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "oracle-check",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--hard",
            files["hard.ref"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_oracle_check_mismatch_exits_one(files, capsys, monkeypatch):
    import whydb.cli

    monkeypatch.setattr(whydb.cli, "s_repairs", lambda inst, cs, hard: [])
    argv = ["oracle-check", "--db", files["dstar.facts"], "-q", QSTAR_TEXT]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "s-repairs: MISMATCH main=[] oracle=[(1, 3), (3, 4), (6,)]",
        "c-repairs: OK",
        "causes: OK",
    ]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out) == {
        "schema": 1,
        "ok": False,
        "checks": [
            {"name": "s-repairs", "ok": False},
            {"name": "c-repairs", "ok": True},
            {"name": "causes", "ok": True},
        ],
    }


def test_oracle_check_needs_input(files, capsys):
    code, _, err = run(capsys, ["oracle-check", "--db", files["dstar.facts"]])
    assert code == 2 and "needs a query" in err


def test_exit_code_parse_error(files, capsys):
    code, _, err = run(
        capsys, ["causes", "--db", files["broken.facts"], "-q", QSTAR_TEXT]
    )
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_missing_file(files, capsys):
    code, _, err = run(capsys, ["causes", "--db", "/nonexistent.facts", "-q", QSTAR_TEXT])
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_irreparable(files, capsys):
    code, _, err = run(capsys, ["causes", "--db", files["exo.facts"], "-q", QSTAR_TEXT])
    assert code == 1
    assert "exogenous" in err


FD_1100_QUERY = "q :- T(x,y), T(x,z), y != z."


@pytest.fixture
def fd_1100(tmp_path):
    """1100 disjoint FD conflicts, T(k_i,a) and T(k_i,b), as facts, FD and
    query files."""
    db = tmp_path / "conflicts.facts"
    db.write_text("".join(f"T(k{i},a). T(k{i},b).\n" for i in range(1100)))
    fds = tmp_path / "fd.dc"
    fds.write_text("fd T: 1 -> 2.")
    return str(db), str(fds)


@pytest.fixture
def no_gc_callbacks():
    """No gc callback for the test's duration. Python 3.12 and later cannot
    call a Python callback at the recursion limit, so one that a library
    installs in the test process (hypothesis installs one) would print
    "Exception ignored in sys.unraisablehook" from a garbage collection
    started there. A whydb process has none."""
    saved = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        yield
    finally:
        gc.callbacks[:] = saved


def test_deep_repair_search_is_a_budget_error(fd_1100, capsys, no_gc_callbacks):
    # each listing is a product over the 1100 components, of 2**1100 or
    # 2**1099 sets, more than sys.maxsize: it is refused before the first
    db, fds = fd_1100
    for argv in (
        ["repairs", "--kind", "c", "--db", db, "--constraints", fds],
        ["most-responsible", "--db", db, "-q", FD_1100_QUERY],
        ["contingency", "--db", db, "-q", FD_1100_QUERY, "--tid", "7"],
    ) + tuple(
        # 2**1100 S-repairs, more than any listing could finish: the
        # product fails at once, before the first
        [*argv, "--format", fmt]
        for argv in (
            ["repairs", "--kind", "s", "--db", db, "--constraints", fds],
            ["causes", "--db", db, "-q", FD_1100_QUERY],
        )
        for fmt in ("text", "json")
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        assert "1100 violation edges" in err and "Traceback" not in err, argv


@pytest.fixture
def p_1100(tmp_path):
    """1100 one-fact witnesses P(c_i), under `:- P(x).`, as facts and DC
    files: 1100 components of one edge each, and one S-repair."""
    db = tmp_path / "witnesses.facts"
    db.write_text("".join(f"P(c{i}).\n" for i in range(1100)))
    dc = tmp_path / "p.dc"
    dc.write_text(":- P(x).")
    return str(db), str(dc)


def test_many_components_with_one_repair_are_listed(p_1100, capsys):
    # the product over 1100 components of one set each is one set; nothing
    # nests a step per component, so the recursion limit is no bound on it
    db, dc = p_1100
    facts = [f"P(c{i})#{i + 1}" for i in range(1100)]
    others = facts[:4] + facts[5:]  # all but tid 5, P(c4)
    cases = [
        (
            ["repairs", "--kind", kind, "--db", db, "--constraints", dc],
            [f"{kind}-repair 1: deleted {{{', '.join(facts)}}} retained {{}}"],
            {"kind": kind, "repairs": [{"deleted": facts, "retained": []}]},
        )
        for kind in ("s", "c")
    ] + [
        (
            ["most-responsible", "--db", db, "-q", "q :- P(x)."],
            facts,
            {"most_responsible_causes": facts},
        ),
        (
            ["contingency", "--db", db, "-q", "q :- P(x).", "--tid", "5"],
            [f"{{{', '.join(others)}}}"],
            {"tid": 5, "atom": "P(c4)", "contingency_sets": [others]},
        ),
    ]
    for argv, lines, doc in cases:
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "", argv
        assert out.splitlines() == lines, argv
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert code == 0 and err == "", argv
        assert json.loads(out) == {"schema": 1, **doc}, argv


def test_deep_component_is_a_budget_error(tmp_path, capsys, no_gc_callbacks):
    # a path of 2200 facts is one component whose every hitting set holds
    # about 1100 of them, one nested search step each. Beside it lie a
    # singleton edge and an edge of two, and both the listing and the size
    # search name all 2201 edges
    db = tmp_path / "path.facts"
    db.write_text(
        "".join(f"P(c{i},c{i + 1}).\n" for i in range(2200))
        + "P(d,d). P(e1,e2). P(e2,e3).\n"
    )
    query = "q :- P(x,y), P(y,z)."
    for argv in (
        ["causes", "--db", str(db), "-q", query],
        ["responsibility", "--db", str(db), "-q", query, "--tid", "5"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        assert "2201 violation edges" in err and "recursion limit" in err, argv


def test_responsibility_needs_no_repair_listing(fd_1100, capsys):
    # the smallest S-repair holding tuple 7 deletes one tuple per conflict
    db, _ = fd_1100
    code, out, err = run(
        capsys, ["responsibility", "--db", db, "-q", FD_1100_QUERY, "--tid", "7"]
    )
    assert code == 0 and err == ""
    assert out == "responsibility(T(k3,a)#7) = 1/1100\n"


def test_deep_join_is_a_budget_error(tmp_path, capsys, no_gc_callbacks):
    # the join nests one step per atom, so 1200 atoms pass the recursion limit
    db = tmp_path / "two.facts"
    db.write_text("S(a). S(b).")
    query = "q :- " + ", ".join(f"S(x{i})" for i in range(1200)) + "."
    for command in ("query", "causes", "counterfactual"):
        code, out, err = run(capsys, [command, "--db", str(db), "-q", query])
        assert code == 1 and out == "", command
        assert len(err.splitlines()) == 1 and err.startswith("error: "), command
        assert "1200 atoms" in err and "recursion limit" in err, command


def _address_space(limit: int):
    """A preexec_fn that caps the child's address space at `limit` bytes."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_listing_too_large_for_memory_is_one_error_line(tmp_path):
    # 2**40 S-repairs, few enough for a list but not for memory: the listing
    # grows until it fills the child's 256 MB address space, which takes
    # about a second
    db, fds = _fd_pairs(tmp_path, 40, 0)
    argv = ["repairs", "--kind", "s", "--db", db, "--constraints", fds]
    with _whydb_process(argv, preexec_fn=_address_space(256 * 2**20)) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and out == ""
    assert err == "error: out of memory\n"
    # 2**500 are more than any list can hold: refused before the first
    db, fds = _fd_pairs(tmp_path, 500, 0)
    argv = ["repairs", "--kind", "s", "--db", db, "--constraints", fds]
    with _whydb_process(argv, preexec_fn=_address_space(256 * 2**20)) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "500 violation edges" in err and "Traceback" not in err


def test_exit_code_open_query_precondition(files, capsys):
    code, _, err = run(
        capsys, ["causes", "--db", files["dstar.facts"], "-q", "q(x) :- S(x)."]
    )
    assert code == 1


def test_exit_code_unknown_tid(files, capsys):
    code, _, err = run(
        capsys,
        [
            "responsibility",
            "--db",
            files["dstar.facts"],
            "-q",
            QSTAR_TEXT,
            "--tid",
            "99",
        ],
    )
    assert code == 1


def test_oracle_guard_env_var(files, capsys, monkeypatch):
    monkeypatch.setenv("WHYDB_ORACLE_GUARD", "2")
    code, _, err = run(
        capsys, ["oracle-check", "--db", files["dstar.facts"], "-q", QSTAR_TEXT]
    )
    assert code == 1
    assert "guard" in err


def test_oracle_guard_above_the_cap_is_the_cap(files, tmp_path, capsys, monkeypatch):
    db = tmp_path / "nineteen.facts"
    db.write_text("".join(f"S(a{i}). " for i in range(19)))
    big = ["oracle-check", "--db", str(db), "-q", "q :- S(x)."]
    small = ["oracle-check", "--db", files["dstar.facts"], "-q", QSTAR_TEXT]
    monkeypatch.delenv("WHYDB_ORACLE_GUARD", raising=False)
    expected = [run(capsys, big), run(capsys, small)]
    assert expected[0] == (
        1, "", "error: 19 endogenous tuples exceed the oracle guard of 18\n"
    )
    monkeypatch.setenv("WHYDB_ORACLE_GUARD", "99")
    assert [run(capsys, big), run(capsys, small)] == expected


@pytest.mark.parametrize("merged", [False, True])
@pytest.mark.parametrize("buffered", [True, False])
def test_reader_closing_early_is_exit_one(tmp_path, monkeypatch, buffered, merged):
    # 12,000 answer lines, about 200 KB, and a JSON document of 64 S-repairs,
    # about 170 KB, overfill the 64 KiB pipe buffer, so the CLI is still
    # writing when the reader closes its end. One line, read by no one, is
    # still in stdout's buffer at exit unless unbuffered. Merged, stderr
    # shares the closed pipe (`2>&1 | head`), so not even the error line can
    # be written.
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    wide = tmp_path / "wide.facts"
    wide.write_text("".join(f"R(a{i},b{i}).\n" for i in range(12000)))
    one = tmp_path / "one.facts"
    one.write_text("R(a0,b0).")
    pairs, fds = _fd_pairs(tmp_path, 6, 100)
    query = ["-q", "q(x,y) :- R(x,y)."]
    for argv, read in (
        (["query", "--db", str(wide), *query], 100),
        (["query", "--db", str(one), *query], 0),
        (["repairs", "--db", pairs, "--constraints", fds, "--format", "json"], 100),
    ):
        stderr = subprocess.STDOUT if merged else subprocess.PIPE
        with _whydb_process(argv, stderr) as proc:
            head = proc.stdout.read(read)
            proc.stdout.close()
            err = "" if merged else proc.stderr.read()
        assert len(head) == read
        assert proc.returncode == 1, (argv, err)
        assert err.count("error:") <= 1 and "Exception ignored" not in err, err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["causes", "--help"]])
@pytest.mark.parametrize("buffered", [True, False])
def test_help_into_a_closed_reader_is_exit_one(monkeypatch, buffered, argv):
    # `whydb --help | true`: argparse's own write to stdout fails, and
    # unbuffered there is nothing left for the final flush to find
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with _whydb_process(argv) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1, err
    assert err.count("error:") <= 1 and "Exception ignored" not in err, err


@pytest.mark.parametrize("buffered", [True, False])
def test_unwritable_error_keeps_its_exit_code(tmp_path, monkeypatch, buffered):
    # `2>&1 | true`: the reader has gone before the error line is written,
    # by whydb or, for a usage error (no query), by argparse
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    missing = str(tmp_path / "missing.facts")
    for argv in (["query", "--db", missing, "-q", "q(x) :- R(x)."], ["causes", "--db", missing]):
        with _whydb_process(argv, subprocess.STDOUT) as proc:
            proc.stdout.close()
        assert proc.returncode == 2, argv


def test_exit_code_usage(files, capsys):
    assert main(["causes"]) == 2
    assert main(["no-such-command"]) == 2


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("whydb ")


def test_main_can_be_called_again_in_one_process(files, capsys, monkeypatch):
    # each argv gives the same result after any other, in one process, as
    # in a process of its own: no call leaves state behind for the next
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("WHYDB_ORACLE_GUARD", raising=False)
    db = ["--db", files["dstar.facts"]]
    kq = ["--constraints", files["kq.dc"]]
    query = ["-q", QSTAR_TEXT]
    argvs = [
        ["repairs", *db, *kq, "--kind", "c"],
        ["repairs", *db, *kq],
        ["emit-asp", *db, *query, "--no-cause-rules"],
        ["emit-asp", *db, *query],
        ["causes", *query],
        ["--help"],
        ["--version"],
        ["causes", *db, *query, "--format", "json"],
    ]
    forward = [run(capsys, argv) for argv in argvs]
    backward = [run(capsys, argv) for argv in reversed(argvs)][::-1]
    alone = [run_alone(argv) for argv in argvs]
    assert forward == backward == alone
    (c_kind, s_kind, without, with_rules, usage, help_, version, causes) = forward
    assert c_kind[1].startswith("c-repair 1: ") and s_kind[1].startswith("s-repair 1: ")
    assert "% cause rules" not in without[1] and "% cause rules" in with_rules[1]
    assert usage[0] == 2 and usage[2].startswith("usage: whydb causes")
    assert help_[0] == 0 and help_[1].startswith("usage: whydb")
    assert version == (0, f"whydb {whydb.__version__}\n", "")
    assert causes[0] == 0 and json.loads(causes[1])["schema"] == 1


def test_build_parser_returns_a_new_parser(capsys):
    # a caller may change the parser it gets without changing main's
    parser = build_parser()
    assert parser is not build_parser()
    parser.prog = "changed"
    code, out, err = run(capsys, ["no-such-command"])
    assert (code, out) == (2, "") and err.startswith("usage: whydb [-h]")
