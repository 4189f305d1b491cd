"""Tests of the benchmark's own machinery: output checks, traced counts,
restoring the wrapped functions, and refusing to run without a source tree.

    python3 -m pytest bench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORD = (1, 2, 1, 3, 2, 1)
DATUM = (1, 0, 2, 0, 1, 1)


@pytest.fixture(scope="module")
def prog():
    return workloads.Program(ROOT)


def test_oracle_hand_values():
    a2 = oracle.cartan(2, [(1, 2)])
    assert oracle.betas(a2, (1, 2, 1)) == [(1, 0), (1, 1), (0, 1)]
    assert oracle.mu(a2, (1, 2, 1), (1, 0, 2)) == (1, 2)
    assert [oracle.v_dims(a2, (1, 2, 1), k) for k in (1, 2, 3)] == [(1, 0), (1, 1), (1, 1)]
    a3 = oracle.cartan(3, [(1, 2), (2, 3)])
    assert len([w for w in oracle.reduced_words(a3, 6) if len(w) == 6]) == 16
    assert not oracle.is_reduced(a3, (1, 1))


def test_sample_check_flags_a_datum_off_by_one(prog):
    g, a = prog.graph("a3")
    item = workloads._sample_item(prog, g, a, WORD, DATUM, 7)
    x, got = item.run()
    assert item.check((x, got)) == []
    for k in range(len(DATUM)):
        for step in (1, -1):
            off = list(got)
            off[k] += step
            assert item.check((x, tuple(off))), (k, step)


def test_sample_check_flags_wrong_dims_and_socle(prog):
    g, a = prog.graph("a3")
    item = workloads._sample_item(prog, g, a, WORD, DATUM, 7)
    other = DATUM[:-1] + (DATUM[-1] + 1,)
    x, _ = workloads._sample_item(prog, g, a, WORD, other, 7).run()
    assert any("mu" in p for p in item.check((x, DATUM)))
    # Right dims, zero maps: every vector is socle, so eps*_1 = mu_1 = 1 != 0.
    datum = (0, 1, 2, 0, 1, 1)
    flat = prog.prepmod.semisimple(g, oracle.mu(a, WORD, datum))
    item = workloads._sample_item(prog, g, a, WORD, datum, 7)
    assert any("socle" in p for p in item.check((flat, datum)))


def test_family_check_flags_wrong_dims(prog):
    g, a = prog.graph("a3")
    word = (1, 2, 3)
    layers_out = workloads._family_item(prog, g, a, word, None, 3).run()
    assert oracle.check_family(a, word, layers_out) == []
    m_ref, m_cok, v, iso, chain = layers_out[1]
    for bad in ((tuple(d + 1 for d in m_ref), m_cok, v, iso, chain),
                (m_ref, m_cok, v[:-1] + (v[-1] + 1,), iso, chain),
                (m_ref, m_cok, v, False, chain)):
        assert oracle.check_family(a, word, [layers_out[0], bad, layers_out[2]])


def test_reflection_check_needs_pass_and_construction_failure():
    assert oracle.check_reflection("probabilistic-pass", True, "fail", "construction") == []
    assert oracle.check_reflection("fail", False, "fail", "construction")
    assert oracle.check_reflection("probabilistic-pass", True, "fail", "braid-iso")


def _mini(prog, seed):
    """A few items of every workload: a short traced pass over all layers."""
    return (workloads.families(prog, seed)[:8] + workloads.sample_small(prog, seed)[:4]
            + workloads.reflect_rat(prog, seed)[:2])


def test_two_traced_runs_with_one_seed_count_the_same(prog, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "mini", _mini)
    passes = [run.traced_pass(prog, "mini", 5, hostspeed.ItemClock()) for _ in range(2)]
    first, second = (tracer.counts() for tracer, _, _ in passes)
    assert first == second
    assert first["linalg.rref.calls"] > 0 and first["families.m_module.distinct"] > 0
    assert first["strata.random_extension.unknowns"] > 0
    assert all(tally.problems == [] for _, tally, _ in passes)


def _bindings():
    """Every attribute of every nilcrystal module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "nilcrystal" or name.startswith("nilcrystal."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_reach_from_imports_and_are_restored(prog, monkeypatch):
    before = _bindings()
    rref = sys.modules["nilcrystal.linalg"].rref
    tracer = layers.Tracer()
    tracer.install()
    try:
        injectives = sys.modules["nilcrystal.prepmod.injectives"]
        assert injectives.rref is not rref and injectives.rref.__wrapped__ is rref
        assert sys.modules["nilcrystal.prepmod"].extract_datum.__wrapped__ is \
            before[("nilcrystal.prepmod.strata", "extract_datum")]
    finally:
        tracer.restore()
    assert _bindings() == before

    def broken(prog, seed):
        raise RuntimeError("item list failed")

    monkeypatch.setitem(workloads.WORKLOADS, "broken", broken)
    with pytest.raises(RuntimeError):
        run.traced_pass(prog, "broken", 1, hostspeed.ItemClock())
    assert _bindings() == before


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "families", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
