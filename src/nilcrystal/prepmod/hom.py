"""Morphism spaces by exact linear solve, and randomized iso testing.

The system of a morphism space is one `block_system`, with a block per
vertex and an equation per arrow, and a random morphism is one product of
the row of coefficients with the flattened basis maps, read back into
blocks by `read_blocks`.
Isomorphism testing samples random elements of the morphism space and
checks invertibility vertex by vertex. Invertible morphisms form the
nonvanishing locus of a determinant polynomial of degree at most the
total dimension, so when coefficients are drawn from a set of size q (all
of F_p, or [0, 2^31) for the rationals) each failed sample is a false
negative with probability at most d/q.
"""

import math
import random

from ..linalg import Mat, block_system, nullspace, read_blocks
from .module import ModuleMap, arrows_of

DEFAULT_CONFIDENCE_BITS = 40


def hom_space(m, n):
    """A basis of the space of morphisms m -> n, as ModuleMaps.

    The unknowns are the blocks f_i, one per vertex, and each arrow a gives
    the equation f_tgt . M_a - N_a . f_src = 0, written by `block_system`
    with the left term (-N_a, src) and the right term (tgt, M_a). There are
    no loops, so the two blocks differ. An equation with no entries, which
    writes no rows, is left out.
    """
    if m.graph != n.graph:
        raise ValueError("morphism spaces need a common graph")
    f, shapes = m.field, list(zip(n.dims, m.dims))  # f_i is n_i x m_i
    system, _ = block_system(f, shapes, [
        ((n.dim_at(a.tgt), m.dim_at(a.src)), [(n.arrow_map(a).neg(), a.src - 1)],
         [(a.tgt - 1, m.arrow_map(a))])
        for a in arrows_of(m.graph) if n.dim_at(a.tgt) * m.dim_at(a.src)])
    basis = nullspace(system)[0].transpose().rows
    return [ModuleMap(m, n, read_blocks(f, vec, shapes), check=False) for vec in basis]


def random_hom(basis, rng):
    """A random field combination of a morphism basis: one product of the
    coefficient row with the flattened basis maps, read back into blocks."""
    if not basis:
        return None
    m, n = basis[0].source, basis[0].target
    f = m.field
    coeffs = [f.random(rng) for _ in basis]
    flat_t = zip(*([x for mat in b.mats for r in mat.rows for x in r] for b in basis))
    (flat,) = f.matmul([coeffs], list(flat_t))
    return ModuleMap(m, n, read_blocks(f, flat, list(zip(n.dims, m.dims))), check=False)


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
