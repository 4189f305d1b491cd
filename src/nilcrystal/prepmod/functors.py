"""Reflection functors at a vertex, on modules and on morphisms.

At vertex i, write `in` for the signed incoming assembly and `out` for the
unsigned outgoing assembly; the defining relation says in . out = 0. The
forward functor replaces the space at i by ker(in), the backward one by
coker(out), each with a twisted structure map built from -(out . in). The
cokernel is one elimination (`linalg.cokernel`): it gives the projection
onto coker(out) and the unit columns that it maps to the identity.
The twist sign is a parameter only so the harness can demonstrate that the
flipped convention breaks the contracts; production code never passes it.
The real functors (twist 1) preserve nilpotent modules (Baumann-Kamnitzer,
Preprojective algebras and MV polytopes, 2012), so their results are checked
for shapes only, and for relations in `veritas.check_reflection_contracts`;
a twisted result gets the full check, nilpotency included.
"""

from ..errors import InternalRelationFailure
from ..linalg import Mat, cokernel, nullspace, solve
from .module import ModuleMap, PModule, arrows_into


def sigma(i, m, twist=1):
    """Forward reflection at i: new space ker(in), outgoing = inclusion."""
    g, f = m.graph, m.field
    in_i = m.in_map(i)
    out_i = m.out_map(i)
    slices = m.in_block_slices(i)
    k = nullspace(in_i)  # total-in x newdim, columns span ker(in)
    new_dim = k.ncols
    # incl . c = twist * out . in, well-defined since in . out = 0.
    rhs = (out_i @ in_i).scale(f.of_int(twist))
    c = solve(k, rhs)
    if c is None:
        raise InternalRelationFailure("twisted map does not land in the kernel")
    maps = dict(m.maps)
    dims = list(m.dims)
    dims[i - 1] = new_dim
    for a in arrows_into(g, i):
        lo, hi = slices[(a.edge, a.dir)]
        # New incoming component carries the sign back out of the assembly.
        blk_in = c.col_slice(lo, hi)
        maps[(a.edge, a.dir)] = blk_in if a.sign > 0 else blk_in.neg()
        # New outgoing component is the inclusion block.
        maps[(a.edge, -a.dir)] = k.row_slice(lo, hi)
    build = PModule._derived if twist == 1 else PModule
    try:
        return build(g, f, dims, maps)
    except InternalRelationFailure as exc:
        raise InternalRelationFailure(f"forward reflection at {i} broke relations: {exc}") from exc


def sigma_star(i, m, twist=1):
    """Backward reflection at i: new space coker(out), incoming = projection."""
    g, f = m.graph, m.field
    in_i = m.in_map(i)
    out_i = m.out_map(i)
    slices = m.in_block_slices(i)
    e, proj = cokernel(out_i)
    new_dim = proj.nrows
    # Induced map coker -> total-in from twist * out . in (kills image(out)).
    induced = (out_i @ in_i).scale(f.of_int(twist)) @ e
    maps = dict(m.maps)
    dims = list(m.dims)
    dims[i - 1] = new_dim
    for a in arrows_into(g, i):
        lo, hi = slices[(a.edge, a.dir)]
        blk_in = proj.col_slice(lo, hi)
        maps[(a.edge, a.dir)] = blk_in if a.sign > 0 else blk_in.neg()
        maps[(a.edge, -a.dir)] = induced.row_slice(lo, hi)
    build = PModule._derived if twist == 1 else PModule
    try:
        return build(g, f, dims, maps)
    except InternalRelationFailure as exc:
        raise InternalRelationFailure(f"backward reflection at {i} broke relations: {exc}") from exc


def sigma_word(word, m, twist=1):
    """Apply forward reflections along a word, first letter first."""
    for i in word:
        m = sigma(i, m, twist=twist)
    return m


def _assembled_block_diag(i, f_map, total_src):
    """Block-diagonal action of a morphism on the incoming assembly at i."""
    m = f_map.source
    z = m.field.zero
    slices_m = m.in_block_slices(i)
    rows = []
    for a in arrows_into(m.graph, i):
        lo, hi = slices_m[(a.edge, a.dir)]
        for r in f_map.mat_at(a.src).rows:
            rows.append([z] * lo + list(r) + [z] * (total_src - hi))
    return Mat(m.field, len(rows), total_src, rows)


def sigma_on_map(i, f_map, twist=1):
    """The forward functor applied to a morphism."""
    m, n = f_map.source, f_map.target
    sm, sn = sigma(i, m, twist=twist), sigma(i, n, twist=twist)
    km, kn = nullspace(m.in_map(i)), nullspace(n.in_map(i))
    # Block-diagonal action on the incoming assemblies restricts to kernels.
    big = _assembled_block_diag(i, f_map, km.nrows)
    restricted = solve(kn, big @ km)
    if restricted is None:
        raise InternalRelationFailure("morphism does not restrict to kernels")
    mats = list(f_map.mats)
    mats[i - 1] = restricted
    return ModuleMap(sm, sn, mats)


def sigma_star_on_map(i, f_map, twist=1):
    """The backward functor applied to a morphism."""
    m, n = f_map.source, f_map.target
    sm, sn = sigma_star(i, m, twist=twist), sigma_star(i, n, twist=twist)
    em, proj_m = cokernel(m.out_map(i))
    _, proj_n = cokernel(n.out_map(i))
    big = _assembled_block_diag(i, f_map, proj_m.ncols)
    induced = proj_n @ big @ em
    mats = list(f_map.mats)
    mats[i - 1] = induced
    return ModuleMap(sm, sn, mats)
