"""Reflection functors at a vertex, on modules and on morphisms.

At vertex i, write `in` for the signed incoming assembly and `out` for the
unsigned outgoing assembly; the defining relation says in . out = 0. The
forward functor replaces the space at i by ker(in), the backward one by
coker(out), each with new structure maps built from out . in, read off
without a solve: out . in maps into ker(in), whose basis is the identity
at its free rows, and kills image(out), so it factors through the cokernel
projection as its columns at the projection's unit columns. `_forward`
returns the reflected module with the free rows of its kernel basis k, and
`_backward` with the cokernel's units and projection, so the functors on
morphisms reflect each end once and reuse what its reflection computed.
The forward reflection's new outgoing maps are the row blocks of k, in
assembly order, so sigma(i, m).out_map(i) is k: the functor on a morphism
reads the source's k off its reflection, and takes a source that a caller
has reflected already.
The functors preserve nilpotent modules (Baumann-Kamnitzer, Preprojective
algebras and MV polytopes, 2012), so their results are checked for shapes
only, and for relations in `veritas.check_reflection_contracts`.
"""

from ..linalg import block_diag, cokernel, nullspace
from .module import ModuleMap, PModule, arrows_into


def _replace_at(i, m, new_in, new_out):
    """m with the space at i replaced: new_in (new x total-in) holds the
    signed incoming blocks, new_out (total-in x new) the outgoing ones."""
    g = m.graph
    slices = m.in_block_slices(i)
    maps = dict(m.maps)
    dims = list(m.dims)
    dims[i - 1] = new_in.nrows
    for a in arrows_into(g, i):
        lo, hi = slices[(a.edge, a.dir)]
        # New incoming component carries the sign back out of the assembly.
        blk_in = new_in.cols(range(lo, hi))
        maps[(a.edge, a.dir)] = blk_in if a.sign > 0 else blk_in.neg()
        maps[(a.edge, -a.dir)] = new_out.rows_at(range(lo, hi))
    return PModule(g, m.field, dims, maps, check=False)


def _forward(i, m):
    """The forward reflection, and the free rows of the inclusion k of its
    new space ker(in), where k is the identity. k is its out_map(i)."""
    in_i, out_i = m.in_map(i), m.out_map(i)
    k, free = nullspace(in_i)  # total-in x newdim, columns span ker(in)
    # k . c = out . in, whose columns lie in ker(in) since in . out = 0.
    c = out_i.rows_at(free) @ in_i
    return _replace_at(i, m, c, k), free


def _backward(i, m):
    """The backward reflection, with the cokernel (units, projection) of out;
    only the columns of `in` at the units are read."""
    out_i = m.out_map(i)
    units, proj = cokernel(out_i)
    # Induced map coker -> total-in from out . in (kills image(out)).
    induced = out_i @ m.in_map(i).cols(units)
    return _replace_at(i, m, proj, induced), units, proj


def sigma(i, m):
    """Forward reflection at i: new space ker(in), outgoing = inclusion."""
    return _forward(i, m)[0]


def sigma_star(i, m):
    """Backward reflection at i: new space coker(out), incoming = projection."""
    return _backward(i, m)[0]


def _on_assembly(i, f_map):
    """Block-diagonal action of a morphism on the incoming assembly at i."""
    m = f_map.source
    return block_diag(m.field, [f_map.mat_at(a.src) for a in arrows_into(m.graph, i)])


def sigma_on_map(i, f_map, source=None):
    """The forward functor applied to a morphism. `source` may pass
    sigma(i, f_map.source) already made; the result is the same."""
    sm = _forward(i, f_map.source)[0] if source is None else source
    sn, free_n = _forward(i, f_map.target)
    # The action on the incoming assemblies maps kernel into kernel, so its
    # restriction is read at the free rows of the target's kernel basis.
    restricted = _on_assembly(i, f_map).rows_at(free_n) @ sm.out_map(i)
    return ModuleMap(sm, sn, f_map.mats[:i - 1] + (restricted,) + f_map.mats[i:])


def sigma_star_on_map(i, f_map):
    """The backward functor applied to a morphism."""
    sm, units_m, _ = _backward(i, f_map.source)
    sn, _, proj_n = _backward(i, f_map.target)
    induced = proj_n @ _on_assembly(i, f_map).cols(units_m)
    return ModuleMap(sm, sn, f_map.mats[:i - 1] + (induced,) + f_map.mats[i:])
