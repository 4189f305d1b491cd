"""Random extensions, stratum sampling, and datum extraction on modules.

A point of the stratum attached to (word, a) is sampled by stacking random
extensions layer by layer; extraction reads the sample back by backward
reflections, each of which also gives the socle multiplicity it removes.
"""

from itertools import groupby

from ..errors import LengthMismatch, NotInGenericStratum
from ..fields import default_field
from ..linalg import Mat, block_system, kernel_vectors
from ..rootsys import require_reduced
from .functors import sigma_star
from .module import (
    ModuleMap,
    PModule,
    arrows_into,
    arrows_of,
    direct_power,
    reverse_arrow,
    zero_module,
)
from .families import m_module


def random_extension(sub, quot, rng, copies=1):
    """A random module extension X of the direct power quot^copies by `sub`.

    `sub` embeds as the first block of each space and X/sub is the direct
    power (`extension_maps` gives the two maps). The unknown
    off-diagonal blocks B_h, one per arrow h, form the solution space of
    one `block_system` with an equation per vertex; a uniformly random
    solution is drawn (zero gives the direct sum). The
    blocks solve the relations, and an extension of nilpotent modules is
    nilpotent, so X is checked for shapes only. The copies of each Q_h are
    written straight into the bottom rows [0 | Q_h + ... + Q_h]; the direct
    power itself is never built.

    No relation meets the unknowns of two copies, so one copy's system is
    eliminated once and solved per copy. The module and the draws are those
    of the direct power's system, whose unknowns ascend by (arrow, row,
    copy, column), and where a column of a copy is a pivot exactly when it
    is one in one copy's system: the free values are drawn in that order.
    """
    if sub.graph != quot.graph or sub.field != quot.field:
        raise ValueError("extension pieces need matching graph and field")
    g, f = sub.graph, sub.field
    arr = arrows_of(g)
    block = {(a.edge, a.dir): k for k, a in enumerate(arr)}
    shapes = [(sub.dim_at(a.tgt), quot.dim_at(a.src)) for a in arr]
    # Relation at vertex v, top-right block:
    #   sum over arrows h into v of sign(h) (S_h B_hbar + B_h Q_hbar) = 0.
    # The blocks B_hbar (out of v) and B_h (into v) are distinct for every
    # h, since the graph has no loops.
    equations = []
    for v in g.vertices():
        if not sub.dim_at(v) * quot.dim_at(v):
            continue  # a relation with no entries writes no rows
        lefts, rights = [], []
        for a in arrows_into(g, v):
            s, q = sub.arrow_map(a), quot.arrow_map(reverse_arrow(a))
            if a.sign < 0:
                s, q = s.neg(), q.neg()
            lefts.append((s, block[(a.edge, -a.dir)]))
            rights.append((block[(a.edge, a.dir)], q))
        equations.append(((sub.dim_at(v), quot.dim_at(v)), lefts, rights))
    system, offsets = block_system(f, shapes, equations)

    def fill(free):
        # Row by row of each B_h, every copy's free values of the row in turn.
        row_of = [off + r * qc for (sr, qc), off in zip(shapes, offsets)
                  for r in range(sr) for _ in range(qc)]  # the row's first unknown
        values = [[] for _ in range(copies)]
        for _, cols in groupby(free, key=row_of.__getitem__):
            n = len(list(cols))
            drawn = f.random(rng, n * copies)
            for j, vals in enumerate(values):
                vals += drawn[j * n:(j + 1) * n]
        return values

    sols = list(kernel_vectors(system, fill))

    # Each map is [[S_h, B_h], [0, Q_h ⊕ ... ⊕ Q_h]], with copy j's B_h in
    # the j-th block of columns and its Q_h in the j-th diagonal block.
    maps = {}
    for a, (_, qc), off in zip(arr, shapes, offsets):
        sc, z = sub.dim_at(a.src), f.zero
        top = [s + [x for sol in sols for x in sol[off + r * qc : off + (r + 1) * qc]]
               for r, s in enumerate(sub.arrow_map(a).rows)]
        bot = [[z] * (sc + j * qc) + q + [z] * ((copies - 1 - j) * qc)
               for j in range(copies) for q in quot.arrow_map(a).rows]
        maps[(a.edge, a.dir)] = Mat(f, len(top) + len(bot), sc + copies * qc, top + bot)
    dims = tuple(s + copies * q for s, q in zip(sub.dims, quot.dims))
    return PModule(g, f, dims, maps, check=False)


def extension_maps(sub, x, quot):
    """The inclusion sub -> x and the projection x -> quot of an extension
    made by `random_extension`, whose spaces put sub's block first."""
    ones = [Mat.identity(sub.field, s + q) for s, q in zip(sub.dims, quot.dims)]
    incl = [e.cols(range(s)) for e, s in zip(ones, sub.dims)]
    proj = [e.rows_at(range(s, e.nrows)) for e, s in zip(ones, sub.dims)]
    return ModuleMap(sub, x, incl, check=False), ModuleMap(x, quot, proj, check=False)


def build_filtered(g, w, a, rng, field=None):
    """A random sample of the stratum attached to (word, a).

    Layer k is M_k^{a_k}, stacked on the layers below it by one random
    extension solved once per copy of M_k. A layer with a_k = 0 is skipped,
    and the first nonzero layer is the direct power itself: an extension
    with no unknowns draws nothing, so the draws and the sample are those
    of one extension by the whole direct power per layer. With a_k = 1 that
    first layer is the memoized M_k itself.
    """
    require_reduced(g, w)
    if len(a) != len(w):
        raise LengthMismatch(f"|a|={len(a)} but word length is {len(w)}")
    field = field or default_field()
    x = zero_module(g, field)
    for k, mult in enumerate(a, 1):
        if mult == 0:
            continue
        layer = m_module(g, w, k, route="reflection", field=field)
        if x.total_dim == 0:
            x = direct_power(layer, mult)
        else:
            x = random_extension(x, layer, rng, mult)
    return x


def extract_datum(g, w, x, trace=None):
    """Read off the datum of a module by socle reads and backward reflections.

    Appends (a_k, residual_dims_after_step) records to `trace` when given.
    Raises NotInGenericStratum when the residual after the last step is
    nonzero. A residual that lives at the letter read, the zero module
    included, is not reflected: a_k is its whole dimension there, and the
    reflection is the zero module.
    """
    require_reduced(g, w)
    out = []
    for i in w:
        if x.total_dim == x.dim_at(i):  # out_i has no rows: x_i is all socle
            a_k = x.dim_at(i)
            if a_k:
                x = zero_module(g, x.field)
        else:
            # a_k = dim ker(out_i), for out_i from x_i to the incoming sum;
            # sigma_star puts coker(out_i) at i, so no second elimination.
            a_k = x.dim_at(i) - sum(x.dim_at(a.src) for a in arrows_into(g, i))
            x = sigma_star(i, x)
            a_k += x.dim_at(i)
        out.append(a_k)
        if trace is not None:
            trace.append((a_k, x.dims))
    if x.total_dim != 0:
        raise NotInGenericStratum(
            f"residual module has dims {x.dims} after the word", residual_dims=x.dims
        )
    return tuple(out)
