"""Morphism spaces by exact linear solve, and randomized iso testing.

Isomorphism testing samples random elements of the morphism space and
checks invertibility vertex by vertex. Invertible morphisms form the
nonvanishing locus of a determinant polynomial of degree at most the
total dimension, so when coefficients are drawn from a set of size q (all
of F_p, or [0, 2^31) for the rationals) each failed sample is a false
negative with probability at most d/q.
"""

import math
import random

from ..linalg import Mat, nullspace
from .module import ModuleMap, arrows_of

DEFAULT_CONFIDENCE_BITS = 40


def hom_space(m, n):
    """A basis of the space of morphisms m -> n, as ModuleMaps."""
    if m.graph != n.graph:
        raise ValueError("morphism spaces need a common graph")
    f = m.field
    offsets = []
    total = 0
    for i in m.graph.vertices():
        offsets.append(total)
        total += n.dim_at(i) * m.dim_at(i)

    def var(i, r, c):
        return offsets[i - 1] + r * m.dim_at(i) + c

    rows = []
    for a in arrows_of(m.graph):
        ma, na = m.arrow_map(a), n.arrow_map(a)
        src, tgt = a.src, a.tgt
        for r in range(n.dim_at(tgt)):
            for b in range(m.dim_at(src)):
                row = [f.zero] * total
                # (f_tgt . M_a)[r][b] - (N_a . f_src)[r][b] = 0
                for c in range(m.dim_at(tgt)):
                    row[var(tgt, r, c)] = f.add(row[var(tgt, r, c)], ma.rows[c][b])
                for c in range(n.dim_at(src)):
                    row[var(src, c, b)] = f.sub(row[var(src, c, b)], na.rows[r][c])
                rows.append(row)
    system = Mat(f, len(rows), total, rows)
    basis_cols = nullspace(system)
    out = []
    for j in range(basis_cols.ncols):
        mats = []
        for i in m.graph.vertices():
            nr, nc = n.dim_at(i), m.dim_at(i)
            off = offsets[i - 1]
            mats.append(
                Mat(
                    f,
                    nr,
                    nc,
                    [
                        [basis_cols.rows[off + r * nc + c][j] for c in range(nc)]
                        for r in range(nr)
                    ],
                )
            )
        out.append(ModuleMap(m, n, mats, check=False))
    return out


def random_hom(basis, rng):
    """A random field combination of a morphism basis."""
    if not basis:
        return None
    f = basis[0].source.field
    coeffs = [f.random(rng) for _ in basis]
    mats = []
    for i in basis[0].source.graph.vertices():
        acc = Mat.zero(f, basis[0].target.dim_at(i), basis[0].source.dim_at(i))
        for c, b in zip(coeffs, basis):
            acc = acc.add(b.mat_at(i).scale(c))
        mats.append(acc)
    return ModuleMap(basis[0].source, basis[0].target, mats, check=False)


def retry_budget(field, total_dim, confidence_bits=DEFAULT_CONFIDENCE_BITS):
    """Samples needed so (d/q)^t <= 2^-confidence_bits.

    q is the size of the set the field samples from, which is finite even
    for the rationals.
    """
    q = field.sample_size
    d = max(total_dim, 1)
    if q <= d:
        raise ValueError("field too small for the requested confidence")
    per_sample_bits = math.log2(q / d)
    return max(1, math.ceil(confidence_bits / per_sample_bits))


def _zero_map(m, n):
    f = m.field
    mats = [Mat.zero(f, n.dim_at(i), m.dim_at(i)) for i in m.graph.vertices()]
    return ModuleMap(m, n, mats, check=False)


def _search(m, n, basis, rng, predicate, tries):
    if not basis:
        # Hom(m,n) = 0; the zero map may still qualify (e.g. m = n = 0).
        cand = _zero_map(m, n)
        return cand if predicate(cand) else None
    for _ in range(tries):
        cand = random_hom(basis, rng)
        if cand is not None and predicate(cand):
            return cand
    return None


def find_iso(m, n, rng=None, confidence_bits=DEFAULT_CONFIDENCE_BITS):
    """An explicit isomorphism witness, or None (probabilistically)."""
    if m.graph != n.graph:
        raise ValueError("isomorphism testing needs a common graph")
    if m.dims != n.dims:
        return None
    rng = rng or random.Random(0)
    basis = hom_space(m, n)
    tries = retry_budget(m.field, m.total_dim, confidence_bits)
    return _search(m, n, basis, rng, lambda h: h.is_isomorphism(), tries)


def is_iso(m, n, rng=None, confidence_bits=DEFAULT_CONFIDENCE_BITS):
    """Randomized isomorphism test; False on unequal dims is certain."""
    return find_iso(m, n, rng=rng, confidence_bits=confidence_bits) is not None


def find_injective_hom(m, n, rng=None):
    """A generic injective morphism m -> n, or None; misses have degree <= dim m."""
    rng = rng or random.Random(0)
    basis = hom_space(m, n)
    tries = retry_budget(m.field, m.total_dim)
    return _search(m, n, basis, rng, lambda h: h.is_injective(), tries)


def find_surjective_hom(m, n, rng=None):
    """A generic surjective morphism m -> n, or None; misses have degree <= dim n."""
    rng = rng or random.Random(0)
    basis = hom_space(m, n)
    tries = retry_budget(n.field, n.total_dim)
    return _search(m, n, basis, rng, lambda h: h.is_surjective(), tries)
