"""Morphism spaces by exact linear solve, and randomized iso testing.

The system of a morphism space is one `block_system`, with a block per
vertex and an equation per arrow. `hom_space` reads a basis off its
nullspace; a search draws without one, one kernel vector per try through
`kernel_vectors` (the basis's combination with the drawn free values).
Isomorphism testing samples random elements of the morphism space and
checks invertibility vertex by vertex. Invertible morphisms form the
nonvanishing locus of a determinant polynomial of degree at most the
total dimension, so when coefficients are drawn from a set of size q (all
of F_p, or [0, 2^31) for the rationals) each failed sample is a false
negative with probability at most d/q.
"""

import math
import random

from ..linalg import block_system, kernel_vectors, nullspace, read_blocks
from .module import ModuleMap, arrows_of

DEFAULT_CONFIDENCE_BITS = 40


def _system(m, n):
    """The system of the morphisms m -> n, and the shapes of its blocks.

    The unknowns are the blocks f_i, one per vertex, and each arrow a gives
    the equation f_tgt . M_a - N_a . f_src = 0, written by `block_system`
    with the left term (-N_a, src) and the right term (tgt, M_a). There are
    no loops, so the two blocks differ. An equation with no entries, which
    writes no rows, is left out.
    """
    if m.graph != n.graph:
        raise ValueError("morphism spaces need a common graph")
    shapes = list(zip(n.dims, m.dims))  # f_i is n_i x m_i
    system, _ = block_system(m.field, shapes, [
        ((n.dim_at(a.tgt), m.dim_at(a.src)), [(n.arrow_map(a).neg(), a.src - 1)],
         [(a.tgt - 1, m.arrow_map(a))])
        for a in arrows_of(m.graph) if n.dim_at(a.tgt) * m.dim_at(a.src)])
    return system, shapes


def hom_space(m, n):
    """A basis of the space of morphisms m -> n, as ModuleMaps."""
    system, shapes = _system(m, n)
    return [ModuleMap(m, n, read_blocks(m.field, vec, shapes), check=False)
            for vec in nullspace(system)[0].transpose().rows]


def random_hom(m, n, rng, predicate, degree):
    """A random morphism m -> n that satisfies predicate, or None: up to
    retry_budget(field, degree) kernel vectors of one elimination, drawn
    lazily. With Hom(m, n) = 0 the one try is the zero map, which may still
    qualify (e.g. m = n = 0)."""
    f, rng = m.field, rng or random.Random(0)
    system, shapes = _system(m, n)
    tries = retry_budget(f, degree)

    def fill(free):
        for _ in range(tries if free else 1):
            yield f.random(rng, len(free))

    for vec in kernel_vectors(system, fill):
        cand = ModuleMap(m, n, read_blocks(f, vec, shapes), check=False)
        if predicate(cand):
            return cand
    return None


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


def find_iso(m, n, rng=None):
    """An explicit isomorphism witness, or None (probabilistically). Equal
    matrices get a search too, not the identity: on the equal pairs most
    callers compare, that search is what exposes a broken elimination."""
    if m.graph != n.graph:
        raise ValueError("isomorphism testing needs a common graph")
    if m.dims != n.dims:
        return None
    return random_hom(m, n, rng, ModuleMap.is_isomorphism, m.total_dim)


def is_iso(m, n, rng=None):
    """Randomized isomorphism test; False on unequal dims is certain."""
    return find_iso(m, n, rng=rng) is not None


def find_injective_hom(m, n, rng=None):
    """A generic injective morphism m -> n, or None; misses have degree <= dim m."""
    return random_hom(m, n, rng, ModuleMap.is_injective, m.total_dim)


def find_surjective_hom(m, n, rng=None):
    """A generic surjective morphism m -> n, or None; misses have degree <= dim n."""
    return random_hom(m, n, rng, ModuleMap.is_surjective, n.total_dim)
