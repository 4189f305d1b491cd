"""Indecomposable injective modules, for finite-type cross-checks.

The injective I_i with simple socle S_i is the dual of the projective
e_i Lambda, the paths that start at i modulo the signed relations.
Reversing a path and barring its arrows fixes every relation, so I_i at v
is the dual of the paths i -> v, and the arrow a: src -> tgt acts as the
transpose of p |-> class(p . reverse(a)).

e_i Lambda is built degree by degree. The basis paths of one degree, each
followed by an arrow out of its end, span the next. The only new
relations there are x . rho_v, the signed round trips at the end v of a
basis path x two degrees down, written on the spanning paths through the
classes of x . reverse(a). One RREF of them gives the basis, the non-pivot
paths, and the class of every spanning path: a pivot path is minus its row
on the basis. In finite ADE type the degrees vanish eventually.

The module is checked for the relations only. It is nilpotent by its
grading: each arrow map sends the dual of a basis path of degree d to
duals of paths of degree d - 1 (and the degree-0 path to zero), so every
path longer than the top degree acts as zero.
"""

from ..errors import CapExceeded
from ..linalg import Mat, rref
from .module import PModule, arrows_into, arrows_of, arrows_out_of

MAX_DEGREE = 64
# Bounds the spanning paths of one degree of e_i Lambda. In finite type the
# largest measured is 30, on E8; outside it they grow with the degree
# (linearly on affine graphs, exponentially on wild ones).
MAX_RAW_PATHS = 200


def injective_module(g, i, field):
    """The injective envelope of the i-th simple (finite type only)."""
    f = field
    ends = {(a.edge, a.dir): a.tgt for a in arrows_of(g)}

    def end(p):
        return ends[p[-1]] if p else i

    # A path is its arrow keys from i. Every basis path in degree order, the
    # class of every spanning path on them, and the bases of the last two
    # degrees; the degree below 0 is empty.
    paths, classes = [()], {}
    below, basis = [], [()]
    for _ in range(MAX_DEGREE):
        span = [p + ((a.edge, a.dir),) for p in basis for a in arrows_out_of(g, end(p))]
        if len(span) > MAX_RAW_PATHS:
            raise CapExceeded("path space too large; graph is not of finite type")
        col = {p: j for j, p in enumerate(span)}
        rels = []
        for x in below:
            row = [f.zero] * len(span)
            for a in arrows_into(g, end(x)):
                for b, c in classes[x + ((a.edge, -a.dir),)].items():
                    row[col[b + ((a.edge, a.dir),)]] = c if a.sign > 0 else f.neg(c)
            rels.append(row)
        red, pivots = rref(Mat(f, len(rels), len(span), rels))
        pivot_rows = dict(zip(pivots, red.rows))
        free = [j for j in range(len(span)) if j not in pivot_rows]
        for j, p in enumerate(span):
            r = pivot_rows.get(j)
            classes[p] = {p: f.one} if r is None else {
                span[k]: f.neg(r[k]) for k in free if not f.is_zero(r[k])}
        below, basis = basis, [span[j] for j in free]
        paths += basis
        if not basis:
            break
    else:
        raise CapExceeded("graded algebra did not terminate; graph is not of finite type")

    at = {v: [p for p in paths if end(p) == v] for v in g.vertices()}
    loc = {p: k for v in at for k, p in enumerate(at[v])}
    maps = {}
    for a in arrows_of(g):
        rows = [[f.zero] * len(at[a.src]) for _ in at[a.tgt]]
        for row, p in zip(rows, at[a.tgt]):
            for q, c in classes[p + ((a.edge, -a.dir),)].items():
                row[loc[q]] = c
        maps[(a.edge, a.dir)] = Mat(f, len(rows), len(at[a.src]), rows)
    inj = PModule(g, f, tuple(len(at[v]) for v in g.vertices()), maps, check=False)
    inj.validate(_nilpotency=False)
    return inj
