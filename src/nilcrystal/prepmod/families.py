"""The module families built from reflections over the hatted graph.

The hatted graph doubles the vertex set: each original vertex i gains a
primed partner n + i joined to it by one new edge. Reflecting a semisimple
module supported on the primed part along a reduced word, then dividing out
the primed part, produces the submodule/quotient families whose dimension
vectors realize the beta-sequence of the word.
"""

import functools

from ..errors import InternalRelationFailure, InvalidVertex, NoEmbeddingFound
from ..fields import default_field
from ..rootsys import CartanGraph, require_reduced, unit
from .hom import find_injective_hom
from .module import _GRAPH_CACHE_SIZE
from .module import PModule, arrows_of, arrows_out_of, quotient, semisimple, zero_module
from .functors import sigma

# Bound on the reflection memo, in modules. The largest working set of the
# test suite, check_modules on D4 up to length 5, holds 1,236 modules of
# about 2.9 KB each; a whole tier-1 run peaks at 1,557. The bound keeps that
# set whole and caps the memo near 6 MB in a long-running process.
_REFLECTION_MEMO_SIZE = 2048


@functools.lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def hat_graph(g):
    """Extend g by one primed vertex per original vertex.

    Built and validated once per graph: `n_hat` hashes it into every key
    of the reflection memo."""
    extra = tuple((i, g.n + i) for i in g.vertices())
    return CartanGraph(2 * g.n, g.edges + extra)


def _primed_dims(g, lam):
    if any(c < 0 for c in lam):
        raise ValueError("weight must be dominant (nonnegative coefficients)")
    return (0,) * g.n + tuple(lam)


@functools.lru_cache(maxsize=_REFLECTION_MEMO_SIZE)
def _reflected(g, field, dims, letters):
    """The semisimple module `dims` over g, reflected along `letters`.

    Letters act first to last. Built from the memoized module of
    letters[:-1], so words sharing a prefix share its modules. `sigma`
    checks only the shapes of each module it builds; the relations of the
    functors are checked by `veritas.check_reflection_contracts`. Callers
    must not mutate the result.
    """
    if not letters:
        return semisimple(g, dims, field=field)
    return sigma(letters[-1], _reflected(g, field, dims, letters[:-1]))


def n_hat(g, w, lam, field=None):
    """Reflect the primed semisimple along the word, first letter first."""
    require_reduced(g, w)
    dims = _primed_dims(g, lam)
    return _reflected(hat_graph(g), field or default_field(), dims, w)


def restrict_to_unprimed(m, g):
    """The quotient of a hat-graph module by its primed part, as a module over g.

    The primed part is a submodule exactly when every map out of a primed
    vertex is zero, and then the quotient is the restriction to the
    unprimed vertices. That closure is a claim of the theory, so it is
    checked here, and a nonzero map raises InternalRelationFailure.
    """
    for i in g.vertices():
        for a in arrows_out_of(m.graph, g.n + i):
            if not m.arrow_map(a).is_zero():
                raise InternalRelationFailure(f"the primed part is not closed under arrow {a}")
    maps = {(a.edge, a.dir): m.arrow_map(a) for a in arrows_of(g)}
    return PModule(g, m.field, m.dims[: g.n], maps, check=False)


def n_module(g, w, lam, field=None):
    """Quotient of the hatted reflection module by its primed part."""
    return restrict_to_unprimed(n_hat(g, w, lam, field=field), g)


def v_module(g, w, k, field=None):
    """The k-th submodule-family member attached to a reduced word.

    Built by reflecting along the reversed length-k prefix; its dimension
    vector is the k-step weight drop of the k-th letter's fundamental
    weight. k = 0 gives the zero module.
    """
    require_reduced(g, w)
    if k == 0:
        return zero_module(g, field or default_field())
    if not 1 <= k <= len(w):
        raise InvalidVertex(f"index k={k} outside 1..{len(w)}")
    i_k = w[k - 1]
    return n_module(g, w[:k][::-1], unit(g.n, i_k), field=field)


def k_minus(w, k):
    """Previous occurrence of the k-th letter, or 0."""
    i_k = w[k - 1]
    for s in range(k - 1, 0, -1):
        if w[s - 1] == i_k:
            return s
    return 0


def m_module(g, w, k, route="reflection", field=None, rng=None):
    """The k-th subquotient layer, by either construction route.

    route="reflection": reflect the k-th letter's simple along the reversed
    strict prefix. route="cokernel": embed the previous same-letter
    submodule-family member into the k-th one and take the cokernel. The
    embedding is injective, so its own matrices are bases of its image.
    """
    require_reduced(g, w)
    if not 1 <= k <= len(w):
        raise InvalidVertex(f"index k={k} outside 1..{len(w)}")
    field = field or default_field()
    if route == "reflection":
        return _reflected(g, field, unit(g.n, w[k - 1]), w[: k - 1][::-1])
    if route == "cokernel":
        km = k_minus(w, k)
        vk = v_module(g, w, k, field=field)
        if km == 0:
            return vk
        vkm = v_module(g, w, km, field=field)
        emb = find_injective_hom(vkm, vk, rng=rng)
        if emb is None:
            raise NoEmbeddingFound(
                f"no injective morphism for layer k={k} of word {w}"
            )
        q, _ = quotient(vk, emb.mats)
        return q
    raise ValueError(f"unknown route {route!r}")
