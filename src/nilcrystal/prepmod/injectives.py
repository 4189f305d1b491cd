"""Indecomposable injective modules, for finite-type cross-checks.

The algebra is built degree by degree as the path space of the double
quiver modulo the (homogeneous, degree-two) signed relations; in finite
ADE type the graded pieces vanish eventually. The injective with a given
simple socle is the dual of the corresponding right projective, realized
by transposing the left-multiplication matrices on paths.
"""

from ..errors import CapExceeded
from ..linalg import Mat, rref
from .module import PModule, arrows_into, arrows_of, arrows_out_of

MAX_DEGREE = 64
# Walk counts in finite type stay far below this before the basis empties;
# outside finite type they double per degree, so this triggers fast.
MAX_RAW_PATHS = 200


class _GradedQuotient:
    """Per-degree path bases of the quotient algebra, with reduction maps."""

    def __init__(self, g, field):
        self.g = g
        self.field = field
        # (edge, dir) -> the vertex that arrow ends at
        self.ends = {(a.edge, a.dir): a.tgt for a in arrows_of(g)}
        # degree -> (paths, index_of, reducer); a path is (start, arrows...)
        self.degrees = []
        self._build()

    def _paths_of_degree(self, d):
        """Every path of length d, each one of degree d - 1 extended."""
        if d == 0:
            return [(v,) for v in self.g.vertices()]
        return [p + ((a.edge, a.dir),) for p in self.degrees[d - 1][0]
                for a in arrows_out_of(self.g, self._path_end(p))]

    def _path_end(self, p):
        return p[0] if len(p) == 1 else self.ends[p[-1]]

    def _build(self):
        f = self.field
        for d in range(MAX_DEGREE + 1):
            paths = self._paths_of_degree(d)
            # Raw path counts explode on non-finite-type graphs long before
            # the degree cap; bail out by size as well.
            if len(paths) > MAX_RAW_PATHS:
                raise CapExceeded(
                    "path space too large; graph is not of finite type"
                )
            index_of = {p: i for i, p in enumerate(paths)}
            if d < 2:
                reducer = []
                basis = list(range(len(paths)))
            else:
                gens = []
                for base in self.degrees[d - 2][0]:
                    for cut in range(len(base)):
                        # base = prefix + suffix arrows; insert round trips at
                        # the vertex reached after `cut` arrows.
                        at = self._path_end(base[: cut + 1])
                        vec = [f.zero] * len(paths)
                        any_term = False
                        for a in arrows_into(self.g, at):
                            ins = ((a.edge, -a.dir), (a.edge, a.dir))
                            cand = (base[0],) + base[1 : cut + 1] + ins + base[cut + 1 :]
                            if cand in index_of:
                                idx = index_of[cand]
                                one = f.one if a.sign > 0 else f.neg(f.one)
                                vec[idx] = f.add(vec[idx], one)
                                any_term = True
                        if any_term:
                            gens.append(vec)
                if gens:
                    mat = Mat(f, len(gens), len(paths), gens)
                    red, pivots = rref(mat)
                    reducer = [(pivots[r], red.rows[r]) for r in range(len(pivots))]
                    basis = [j for j in range(len(paths)) if j not in set(pivots)]
                else:
                    reducer = []
                    basis = list(range(len(paths)))
            self.degrees.append((paths, index_of, reducer, basis))
            if len(basis) == 0:
                return
        raise CapExceeded(
            "graded algebra did not terminate; graph is not of finite type"
        )

    def reduce(self, d, vec):
        """Reduce a raw path-space vector to quotient coordinates."""
        f = self.field
        paths, _, reducer, basis = self.degrees[d]
        v = list(vec)
        for pivcol, row in reducer:
            c = v[pivcol]
            if not f.is_zero(c):
                for j in range(len(v)):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return [v[j] for j in basis]


def injective_module(g, i, field):
    """The injective envelope of the i-th simple (finite type only)."""
    alg = _GradedQuotient(g, field)
    f = field
    # Quotient basis paths ending at i, grouped by start vertex.
    basis_paths = []  # list of (degree, path)
    for d, (paths, _, _, basis) in enumerate(alg.degrees):
        for j in basis:
            p = paths[j]
            if alg._path_end(p) == i:
                basis_paths.append((d, p))
    by_vertex = {v: [] for v in g.vertices()}
    for d, p in basis_paths:
        by_vertex[p[0]].append((d, p))
    index = {}
    for v in g.vertices():
        for loc, (d, p) in enumerate(by_vertex[v]):
            index[p] = loc
    dims = tuple(len(by_vertex[v]) for v in g.vertices())

    maps = {}
    for a in arrows_of(g):
        src, tgt = a.src, a.tgt
        # psi_a : paths (tgt -> i) -> paths (src -> i), p |-> reduce(p . a);
        # the dual module's arrow matrix is its transpose, built row by row
        # (row `col` of the transpose is the image of the col-th path).
        nr, nc = len(by_vertex[tgt]), len(by_vertex[src])
        psi_t = [[f.zero] * nc for _ in range(nr)]
        for col, (d, p) in enumerate(by_vertex[tgt]):
            new_path = (src,) + ((a.edge, a.dir),) + p[1:]
            paths_d1 = alg.degrees[d + 1][0] if d + 1 < len(alg.degrees) else []
            idx_map = alg.degrees[d + 1][1] if d + 1 < len(alg.degrees) else {}
            vec = [f.zero] * len(paths_d1)
            if new_path in idx_map:
                vec[idx_map[new_path]] = f.one
                coords = alg.reduce(d + 1, vec)
            else:
                coords = []
            # Express in the (src -> i) slice of the degree-(d+1) basis.
            if coords:
                basis_d1 = alg.degrees[d + 1][3]
                for bloc, j in enumerate(basis_d1):
                    bp = paths_d1[j]
                    if f.is_zero(coords[bloc]):
                        continue
                    if alg._path_end(bp) != i or bp[0] != src:
                        continue
                    psi_t[col][index[bp]] = f.add(psi_t[col][index[bp]], coords[bloc])
        maps[(a.edge, a.dir)] = Mat(f, nr, nc, psi_t)
    return PModule(g, f, dims, maps)
