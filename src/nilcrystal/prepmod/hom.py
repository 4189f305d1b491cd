"""Morphism spaces by exact linear solve, and randomized iso testing.

The system of a morphism space is written row by row in slices, and a
random morphism is one product per vertex: the row of coefficients times
the flattened basis matrices.
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


def _reshape(f, flat, nr, nc):
    """The nr x nc matrix whose rows, read in order, make up flat."""
    return Mat(f, nr, nc, [flat[r * nc:(r + 1) * nc] for r in range(nr)])


def hom_space(m, n):
    """A basis of the space of morphisms m -> n, as ModuleMaps.

    The unknowns are the entries of every f_i, row by row. Each equation
    (f_tgt . M_a)[r][b] = (N_a . f_src)[r][b] is written as two slices: a
    column of M_a into row r of f_tgt, and -(row r of N_a) into column b of
    f_src. There are no loops, so the two blocks never overlap.
    """
    if m.graph != n.graph:
        raise ValueError("morphism spaces need a common graph")
    f = m.field
    offsets = []
    total = 0
    for i in m.graph.vertices():
        offsets.append(total)
        total += n.dim_at(i) * m.dim_at(i)
    rows = []
    for a in arrows_of(m.graph):
        mt, ms, ns = m.dim_at(a.tgt), m.dim_at(a.src), n.dim_at(a.src)
        src_end = offsets[a.src - 1] + ns * ms
        ma_cols = m.arrow_map(a).transpose().rows
        for r, neg_na_row in enumerate(n.arrow_map(a).neg().rows):
            lo = offsets[a.tgt - 1] + r * mt
            for b, ma_col in enumerate(ma_cols):
                row = [f.zero] * total
                row[lo:lo + mt] = ma_col
                row[offsets[a.src - 1] + b:src_end:ms] = neg_na_row
                rows.append(row)
    basis = nullspace(Mat(f, len(rows), total, rows))[0].transpose().rows
    out = []
    for vec in basis:
        mats = []
        for i in m.graph.vertices():
            nr, nc, off = n.dim_at(i), m.dim_at(i), offsets[i - 1]
            mats.append(_reshape(f, vec[off:off + nr * nc], nr, nc))
        out.append(ModuleMap(m, n, mats, check=False))
    return out


def random_hom(basis, rng):
    """A random field combination of a morphism basis: at each vertex, one
    product of the coefficient row with the flattened basis matrices."""
    if not basis:
        return None
    f = basis[0].source.field
    coeffs = [f.random(rng) for _ in basis]
    mats = []
    for i in basis[0].source.graph.vertices():
        nr, nc = basis[0].target.dim_at(i), basis[0].source.dim_at(i)
        flat_t = zip(*([x for r in b.mat_at(i).rows for x in r] for b in basis))
        (flat,) = f.matmul([coeffs], list(flat_t))
        mats.append(_reshape(f, flat, nr, nc))
    return ModuleMap(basis[0].source, basis[0].target, mats, check=False)


def retry_budget(field, total_dim):
    """Samples needed so (d/q)^t <= 2^-DEFAULT_CONFIDENCE_BITS.

    q is the size of the set the field samples from, which is finite even
    for the rationals.
    """
    q = field.sample_size
    d = max(total_dim, 1)
    if q <= d:
        raise ValueError("field too small for the requested confidence")
    per_sample_bits = math.log2(q / d)
    return max(1, math.ceil(DEFAULT_CONFIDENCE_BITS / per_sample_bits))


def _search(m, n, rng, predicate, degree):
    """A morphism m -> n that satisfies predicate, or None: random elements
    of Hom(m, n), as many as retry_budget gives for misses of this degree."""
    rng = rng or random.Random(0)
    basis = hom_space(m, n)
    tries = retry_budget(m.field, degree)
    if not basis:
        # Hom(m,n) = 0; the zero map may still qualify (e.g. m = n = 0).
        f = m.field
        cand = ModuleMap(m, n, [Mat.zero(f, n.dim_at(i), m.dim_at(i))
                                for i in m.graph.vertices()], check=False)
        return cand if predicate(cand) else None
    for _ in range(tries):
        cand = random_hom(basis, rng)
        if predicate(cand):
            return cand
    return None


def find_iso(m, n, rng=None):
    """An explicit isomorphism witness, or None (probabilistically)."""
    if m.graph != n.graph:
        raise ValueError("isomorphism testing needs a common graph")
    if m.dims != n.dims:
        return None
    return _search(m, n, rng, ModuleMap.is_isomorphism, m.total_dim)


def is_iso(m, n, rng=None):
    """Randomized isomorphism test; False on unequal dims is certain."""
    return find_iso(m, n, rng=rng) is not None


def find_injective_hom(m, n, rng=None):
    """A generic injective morphism m -> n, or None; misses have degree <= dim m."""
    return _search(m, n, rng, ModuleMap.is_injective, m.total_dim)


def find_surjective_hom(m, n, rng=None):
    """A generic surjective morphism m -> n, or None; misses have degree <= dim n."""
    return _search(m, n, rng, ModuleMap.is_surjective, n.total_dim)
