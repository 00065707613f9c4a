import json

import pytest

from whydb.cli import main

from conftest import D2STAR_TEXT, DSTAR_TEXT, K12_TEXT, QSTAR_TEXT


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


def test_exit_code_usage(files, capsys):
    assert main(["causes"]) == 2
    assert main(["no-such-command"]) == 2


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("whydb ")
