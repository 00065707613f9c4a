import importlib.util
import sys
from pathlib import Path

import pytest

from whydb import load_instance, parse_constraints, parse_query

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Running example: R(a4,a3)#1 R(a2,a1)#2 R(a3,a3)#3 S(a4)#4 S(a2)#5 S(a3)#6
DSTAR_TEXT = "R(a4,a3). R(a2,a1). R(a3,a3). S(a4). S(a2). S(a3)."
QSTAR_TEXT = "q :- S(x), R(x,y), S(y)."

D2STAR_TEXT = "P(a). P(e). Q(a,b). R(a,c)."
K12_TEXT = ":- P(x), Q(x,y).\n:- P(x), R(x,y)."

D1_ATOMS = {"R(a4,a3)", "R(a2,a1)", "R(a3,a3)", "S(a4)", "S(a2)"}
D2_ATOMS = {"R(a2,a1)", "S(a4)", "S(a2)", "S(a3)"}
D3_ATOMS = {"R(a4,a3)", "R(a2,a1)", "S(a2)", "S(a3)"}


@pytest.fixture
def dstar():
    return load_instance(DSTAR_TEXT)


@pytest.fixture
def qstar():
    return parse_query(QSTAR_TEXT)


@pytest.fixture
def d2star():
    return load_instance(D2STAR_TEXT)


@pytest.fixture
def k12():
    return parse_constraints(K12_TEXT)


def retained_atoms(inst, repair):
    return {inst.fact(t).atom_text() for t in repair.retained}


def load_bench(name):
    """Load a benchmark module by file, with the benchmark directory on the
    path only while its own imports run."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module
