"""The benchmark's tracer rebinds module-level names in whydb; these tests
fail when a refactor drops one of those names or stops calling through it,
which would silently leave a layer out of the traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from whydb.cli import main

from conftest import DSTAR_TEXT, QSTAR_TEXT

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing  # dataclasses look their module up there
_SPEC.loader.exec_module(tracing)

BASE = {"cli.render", "core.load", "query.parse"}
LAYERS = {
    "causes": BASE | {"causality.assemble", "query.ground", "repair.search"},
    "counterfactual": BASE | {"causality.assemble", "query.eval"},
    "most-responsible": BASE | {"causality.assemble", "query.ground", "repair.search"},
    "repairs": BASE | {"query.ground", "repair.search"},
}


@pytest.mark.parametrize("module_name, name, layer", tracing.TARGETS)
def test_every_target_resolves(module_name, name, layer):
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("command", sorted(LAYERS))
def test_traced_main_records_layers(command, tmp_path, capsys):
    db = tmp_path / "dstar.facts"
    db.write_text(DSTAR_TEXT)
    kq = tmp_path / "kq.dc"
    kq.write_text(":- S(x), R(x,y), S(y).")
    source = ["--constraints", str(kq)] if command == "repairs" else ["-q", QSTAR_TEXT]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run(0, main, [command, "--db", str(db), *source])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert {span.layer for span in tracer.spans} == LAYERS[command]
