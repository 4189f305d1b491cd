"""A catalogue of deliberate faults, each of which a check must catch.

Each mutant is monkeypatched into the namespace of the check that must
catch it, and the test asserts that the check fails with the witness that
names the fault. The sign mutation, which the reflection contracts catch,
is tested in test_veritas and test_acceptance.
"""

import pytest

from nilcrystal import veritas
from nilcrystal.linalg import Mat, cokernel, nullspace, vstack_all
from nilcrystal.prepmod import Submodule, arrows_out_of
from nilcrystal.rootsys import a_n


def _soc_chain_mutant(project, update):
    """`soc_chain` with the projections onto M/U left out of each step's
    kernel (project=False), or never updated after a step (update=False).
    Either way a step takes the plain socle ker(out_j) of M."""

    def soc_chain(m, seq):
        g, f = m.graph, m.field
        bases = [Mat.zero(f, d, 0) for d in m.dims]
        projs = [Mat.identity(f, d) for d in m.dims]
        for j in seq:
            blocks = [projs[a.tgt - 1] @ m.arrow_map(a) if project else m.arrow_map(a)
                      for a in arrows_out_of(g, j)]
            bases[j - 1] = nullspace(vstack_all(f, blocks, m.dim_at(j)))
            if update:
                projs[j - 1] = cokernel(bases[j - 1])[1]
        return Submodule(m, bases)

    return soc_chain


def test_the_socle_chain_law_passes_unmutated():
    assert veritas.check_modules(a_n(3), 2, socle_chain_oracle=True).passed


@pytest.mark.parametrize("mutant", [_soc_chain_mutant(project=False, update=True),
                                    _soc_chain_mutant(project=True, update=False)],
                         ids=["projection-dropped", "projections-stale"])
def test_socle_chain_mutants_fail_the_socle_chain_law(monkeypatch, mutant):
    monkeypatch.setattr(veritas, "soc_chain", mutant)
    r = veritas.check_modules(a_n(3), 2, socle_chain_oracle=True)
    assert r.outcome == "fail"
    assert r.witness == {"kind": "v-socle-chain", "word": [1, 2], "k": 2}
