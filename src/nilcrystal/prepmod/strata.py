"""Random extensions, stratum sampling, and datum extraction on modules.

A point of the stratum attached to (word, a) is sampled by stacking random
extensions layer by layer; extraction reads the sample back by backward
reflections, each of which also gives the socle multiplicity it removes.
"""

from itertools import groupby

from ..errors import LengthMismatch, NonReducedWord, NotInGenericStratum
from ..fields import default_field
from ..linalg import Mat, kernel_vectors
from ..rootsys import is_reduced
from .functors import sigma_star
from .module import (
    ModuleMap,
    PModule,
    arrows_into,
    arrows_of,
    direct_power,
    reverse_arrow,
    soc_i,
    zero_module,
)
from .families import m_module


def random_extension(sub, quot, rng, copies=1):
    """A random module extension X of the direct power quot^copies by `sub`.

    `sub` embeds as the first block of each space and X/sub is the direct
    power (`extension_maps` gives the two maps). The unknown
    off-diagonal blocks form the solution space of an exact linear system;
    a uniformly random solution is drawn (zero gives the direct sum). The
    blocks solve the relations, and an extension of nilpotent modules is
    nilpotent, so X is checked for shapes only.

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
    # B_h is the sub.dim(tgt) x quot.dim(src) block of arrow h, row-major.
    offsets = {}
    total = 0
    for a in arr:
        offsets[(a.edge, a.dir)] = total
        total += sub.dim_at(a.tgt) * quot.dim_at(a.src)

    # Relation at vertex v, top-right block:
    #   sum over arrows h into v of sign(h) (S_h B_hbar + B_h Q_hbar) = 0.
    # The blocks B_hbar (out of v) and B_h (into v) are distinct for every
    # h, since the graph has no loops, so each entry of a row is set once.
    rows = []
    for v in g.vertices():
        qv = quot.dim_at(v)
        terms = []
        for a in arrows_into(g, v):
            s_rows = sub.arrow_map(a).rows
            q_cols = quot.arrow_map(reverse_arrow(a)).transpose().rows
            if a.sign < 0:
                s_rows = [[f.neg(x) for x in r] for r in s_rows]
                q_cols = [[f.neg(x) for x in c] for c in q_cols]
            qa = quot.dim_at(a.src)
            terms.append(
                (offsets[(a.edge, -a.dir)], sub.dim_at(a.src), s_rows,
                 offsets[(a.edge, a.dir)], qa, q_cols)
            )
        for r in range(sub.dim_at(v)):
            for c in range(qv):
                row = [f.zero] * total
                for off_rb, sa, s_rows, off_a, qa, q_cols in terms:
                    # (S_h B_hbar)[r][c] = sum_k S_h[r][k] * B_hbar[k][c]
                    row[off_rb + c : off_rb + c + sa * qv : qv] = s_rows[r]
                    # (B_h Q_hbar)[r][c] = sum_k B_h[r][k] * Q_hbar[k][c]
                    row[off_a + r * qa : off_a + (r + 1) * qa] = q_cols[c]
                rows.append(row)

    def fill(free):
        # Row by row of each B_h, every copy's free values of the row in turn.
        row_of = []  # the first column of each unknown's row of its B_h
        for a in arr:
            qc = quot.dim_at(a.src)
            for r in range(sub.dim_at(a.tgt)):
                row_of += [offsets[(a.edge, a.dir)] + r * qc] * qc
        values = [[] for _ in range(copies)]
        for _, cols in groupby(free, key=row_of.__getitem__):
            n = len(list(cols))
            for vals in values:
                vals.extend(f.random(rng) for _ in range(n))
        return values

    sols = kernel_vectors(Mat(f, len(rows), total, rows), fill)

    # Each map is [[S_h, B_h], [0, Q_h]], with copy j's B_h and Q_h in the
    # j-th block of columns.
    power = quot if copies == 1 else direct_power(quot, copies)
    maps = {}
    for a in arr:
        qc, sc, off = quot.dim_at(a.src), sub.dim_at(a.src), offsets[(a.edge, a.dir)]
        top = [s + [x for sol in sols for x in sol[off + r * qc : off + (r + 1) * qc]]
               for r, s in enumerate(sub.arrow_map(a).rows)]
        bot = [[f.zero] * sc + q for q in power.arrow_map(a).rows]
        maps[(a.edge, a.dir)] = Mat(f, len(top) + len(bot), sc + power.dim_at(a.src),
                                    top + bot)
    dims = tuple(s + q for s, q in zip(sub.dims, power.dims))
    return PModule(g, f, dims, maps, check=False)


def extension_maps(sub, x, quot):
    """The inclusion sub -> x and the projection x -> quot of an extension
    made by `random_extension`, whose spaces put sub's block first."""
    f, pieces = sub.field, list(zip(sub.dims, quot.dims))
    incl = [Mat.identity(f, s).vstack(Mat.zero(f, q, s)) for s, q in pieces]
    proj = [Mat.zero(f, q, s).hstack(Mat.identity(f, q)) for s, q in pieces]
    return ModuleMap(sub, x, incl, check=False), ModuleMap(x, quot, proj, check=False)


def build_filtered(g, w, a, rng, field=None):
    """A random sample of the stratum attached to (word, a).

    Layer k is M_k^{a_k}, stacked on the layers below it by one random
    extension solved once per copy of M_k. A layer with a_k = 0 is skipped,
    and the first nonzero layer is the direct power itself: an extension
    with no unknowns draws nothing, so the draws and the sample are those
    of one extension by the whole direct power per layer.
    """
    if not is_reduced(g, w):
        raise NonReducedWord(f"word {w.letters} is not reduced")
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


def eps_star_mod(i, x):
    """Socle multiplicity of the i-th simple."""
    return soc_i(x, i).dim_at(i)


def extract_datum(g, w, x, trace=None):
    """Read off the datum of a module by socle reads and backward reflections.

    Appends (a_k, residual_dims_after_step) records to `trace` when given.
    Raises NotInGenericStratum when the residual after the last step is
    nonzero.
    """
    if not is_reduced(g, w):
        raise NonReducedWord(f"word {w.letters} is not reduced")
    out = []
    for i in w:
        # a_k = dim ker(out_i), for out_i from the space at i to the incoming
        # sum; sigma_star puts coker(out_i) at i, so no second elimination.
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
