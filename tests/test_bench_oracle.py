"""The `reflect-rat` bench item's outputs pass the bench's own oracle.

Each item runs the reflection contracts and the sign mutation over the
rationals with one seed, and `bench/oracle.check_reflection` demands that
the first passes and the second fails as a construction error. A program
change that breaks either would otherwise show only when the bench runs.
`bench/oracle.py` is loaded from its file, unchanged, as
`test_bench_spans.py` loads `bench/layers.py`.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from nilcrystal import veritas
from nilcrystal.fields import RationalField
from nilcrystal.rootsys import a_n, d4

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("g", [a_n(3), d4()], ids=["A3", "D4"])
def test_reflect_rat_item_passes_the_bench_oracle(g, seed):
    fld = RationalField()
    rep = veritas.check_reflection_contracts(g, 1, random.Random(seed), fld=fld)
    mut = veritas.check_reflection_contracts(g, 1, random.Random(seed), fld=fld, twist=-1)
    out = rep.outcome, rep.passed, mut.outcome, (mut.witness or {}).get("kind")
    assert _oracle().check_reflection(*out) == []
