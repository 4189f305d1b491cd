"""Nilpotent modules over the preprojective algebra of a Cartan graph.

A module assigns a vector space to each vertex and one matrix to each arrow
of the double quiver. Each edge (u, v), stored in orientation order,
contributes the arrow (e, +1): u -> v with sign +1 and the reverse arrow
(e, -1): v -> u with sign -1. The defining relation at a vertex is the
signed sum of round trips through its incident edges, checked as one
product of the assembled incoming and outgoing maps.
"""

import functools
import json
from collections import namedtuple

from ..errors import InternalRelationFailure, InvalidModuleFile
from ..fields import PrimeField, RationalField, default_field
from ..linalg import (
    Mat,
    block_diag,
    cokernel,
    col_basis,
    hstack_all,
    is_invertible,
    nullspace,
    rank,
    solve,
    vstack_all,
)
from ..rootsys import CartanGraph, unit

Arrow = namedtuple("Arrow", "edge dir src tgt sign")


# The largest total dimension a module file may give, checked before
# anything is built. Loading checks the relations with one d x d product at
# each vertex of dimension d whose incoming assembly has columns; a vertex
# with none has a zero relation by shape and forms no product, so a file
# with no arrow entries loads at once (6 ms at 8,192 on one vertex). Two
# entries per unit of dimension suffice for the product: an 82 kB file on
# A2 with dims (8,191, 1) and zero maps takes 7 s and 0.54 GB to load on a
# 2-core x86-64 host. A module the program builds costs far more to build
# than to load: an A3 longest-word point of total dimension 2,000 takes 17 s
# to build and 1.8 s to load there, so the cap lies past every module built
# in minutes.
FILE_DIM_CAP = 8192

# Per-graph incidence tables. CartanGraph is frozen and hashable, and a
# program meets only a handful of graphs, so the bound is never reached.
_GRAPH_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _incidence(g):
    """Every arrow of g, with the arrows into and out of each vertex."""
    arrows = []
    for e, (u, v) in enumerate(g.edges):
        arrows.append(Arrow(e, +1, u, v, +1))
        arrows.append(Arrow(e, -1, v, u, -1))
    into = {i: tuple(a for a in arrows if a.tgt == i) for i in g.vertices()}
    out_of = {i: tuple(a for a in arrows if a.src == i) for i in g.vertices()}
    return tuple(arrows), into, out_of


def arrows_of(g):
    return _incidence(g)[0]


def arrows_into(g, i):
    return _incidence(g)[1].get(i, ())


def arrows_out_of(g, i):
    return _incidence(g)[2].get(i, ())


def reverse_arrow(a):
    src, tgt = a.tgt, a.src
    return Arrow(a.edge, -a.dir, src, tgt, -a.sign)


class PModule:
    """A representation of the double quiver satisfying the signed relations.

    Immutable after construction: no code writes `maps` once the module is
    made, so `in_map(i)` and `out_map(i)` are assembled from them once per
    vertex, on first use, and kept. `dims` is a tuple indexed by vertex - 1;
    `maps` is keyed by (edge_index, direction); a missing arrow gets the
    zero map. Shapes are always checked. `check=False` skips the relations
    and nilpotency, for a module made by an operation that keeps both: the
    reflection functors, `random_extension`, quotients, submodules and
    restrictions.
    """

    def __init__(self, graph, field, dims, maps, check=True):
        self.graph = graph
        self.field = field
        self.dims = dims = tuple(int(d) for d in dims)
        self.maps = maps = dict(maps)
        self._in, self._out = {}, {}
        for a in arrows_of(graph):
            nr, nc = dims[a.tgt - 1], dims[a.src - 1]
            m = maps.get((a.edge, a.dir))
            if m is None:
                maps[(a.edge, a.dir)] = Mat.zero(field, nr, nc)
            elif m.nrows != nr or m.ncols != nc:
                raise InternalRelationFailure(
                    f"arrow {a} has shape {(m.nrows, m.ncols)}, expected {(nr, nc)}"
                )
        if check:
            self.validate()

    def arrow_map(self, a):
        return self.maps[(a.edge, a.dir)]

    def dim_at(self, i):
        return self.dims[i - 1]

    @property
    def total_dim(self):
        return sum(self.dims)

    def relation_at(self, i):
        """Signed sum of round trips into vertex i; zero on valid modules.

        One product: the signed block row of incoming maps times the block
        column of outgoing ones.
        """
        return self.in_map(i) @ self.out_map(i)

    def validate(self, *, _nilpotency=True):
        """The relations at every vertex, and nilpotency off finite type only:
        on a Dynkin graph the preprojective algebra is finite-dimensional
        (Gelfand-Ponomarev 1979), so the relations imply nilpotency.
        `_nilpotency=False` skips the descent on every graph. A vertex whose
        incoming assembly has no columns has a zero relation by shape, so no
        product is formed there."""
        for i in self.graph.vertices():
            if self.in_map(i).ncols and not self.relation_at(i).is_zero():
                raise InternalRelationFailure(f"relation fails at vertex {i}")
        if _nilpotency and not self.graph.finite_type and not self.is_nilpotent():
            raise InternalRelationFailure("module is not nilpotent")

    def is_nilpotent(self):
        """Radical-series descent: J M at i is spanned by the arrow maps into
        i, and J^(k+1) M by them on J^k M. The spaces shrink until they reach
        zero or stop at a nonzero fixed point. `validate` runs it off finite type."""
        g, f = self.graph, self.field

        def span(image_of):
            return [col_basis(hstack_all(f, [image_of(a) for a in arrows_into(g, i)], d))
                    for i, d in zip(g.vertices(), self.dims)]

        sizes, spaces = list(self.dims), span(self.arrow_map)
        while any(s.ncols for s in spaces):
            if [s.ncols for s in spaces] == sizes:
                return False
            sizes = [s.ncols for s in spaces]
            spaces = span(lambda a: self.arrow_map(a) @ spaces[a.src - 1])
        return True

    # -- assembled boundary maps at a vertex ---------------------------

    def in_map(self, i):
        """Signed block row (sum of incoming spaces) -> M_i, kept.

        Block order follows arrows_into; the relation says this composed
        with out_map is zero.
        """
        if i not in self._in:
            blocks = []
            for a in arrows_into(self.graph, i):
                m = self.arrow_map(a)
                blocks.append(m if a.sign > 0 else m.neg())
            self._in[i] = hstack_all(self.field, blocks, self.dims[i - 1])
        return self._in[i]

    def out_map(self, i):
        """Unsigned block column M_i -> (sum of incoming spaces), kept."""
        if i not in self._out:
            blocks = [self.maps[(a.edge, -a.dir)] for a in arrows_into(self.graph, i)]
            self._out[i] = vstack_all(self.field, blocks, self.dims[i - 1])
        return self._out[i]

    def in_block_slices(self, i):
        """Row/column offsets of each incoming arrow's block."""
        slices = {}
        off = 0
        for a in arrows_into(self.graph, i):
            d = self.dims[a.src - 1]
            slices[(a.edge, a.dir)] = (off, off + d)
            off += d
        return slices

    # -- serialization --------------------------------------------------

    def to_dict(self):
        fld = self.field
        if isinstance(fld, PrimeField):
            field_info = {"kind": "prime", "p": fld.p}
        else:
            field_info = {"kind": "rational"}
        arrows = []
        for a in arrows_of(self.graph):
            m = self.arrow_map(a)
            arrows.append(
                {
                    "edge": a.edge,
                    "dir": a.dir,
                    "entries": [fld.to_str(x) for row in m.rows for x in row],
                }
            )
        return {
            "graph": self.graph.to_dict(),
            "field": field_info,
            "dims": list(self.dims),
            "arrows": arrows,
        }

    @staticmethod
    def from_dict(data):
        try:
            return PModule._from_dict_unchecked(data)
        except InvalidModuleFile:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidModuleFile(f"malformed module data: {exc}") from exc

    @staticmethod
    def _from_dict_unchecked(data):
        g = CartanGraph.from_dict(data["graph"])
        fi = data["field"]
        if fi["kind"] == "prime":
            fld = PrimeField(fi["p"])
        elif fi["kind"] == "rational":
            fld = RationalField()
        else:
            raise InvalidModuleFile(f"unknown field kind {fi['kind']!r}")
        dims = data["dims"]
        if not isinstance(dims, list) or len(dims) != g.n:
            raise InvalidModuleFile(f"dims must be a list of {g.n} entries, one per vertex")
        if any(type(d) is not int or d < 0 for d in dims):
            raise InvalidModuleFile(f"dims must be nonnegative integers, got {dims}")
        if sum(dims) > FILE_DIM_CAP:
            raise InvalidModuleFile(
                f"a module may have total dimension at most {FILE_DIM_CAP}, got {sum(dims)}")
        by_key = {(a.edge, a.dir): a for a in arrows_of(g)}
        maps = {}
        for rec in data["arrows"]:
            key = (rec["edge"], rec["dir"])
            if any(type(x) is not int for x in key):  # False == 0, 1.0 == 1
                raise InvalidModuleFile(f"edge and dir must be integers, got {key}")
            if key not in by_key:
                raise InvalidModuleFile(f"the graph has no arrow (edge, dir) = {key}")
            if key in maps:
                raise InvalidModuleFile(f"arrow (edge, dir) = {key} appears twice")
            a = by_key[key]
            nr, nc = dims[a.tgt - 1], dims[a.src - 1]
            if not isinstance(rec["entries"], list):  # a string would read per character
                raise InvalidModuleFile(f"entries must be a list, got {rec['entries']!r}")
            vals = [fld.from_str(s) for s in rec["entries"]]
            if len(vals) != nr * nc:
                raise InvalidModuleFile("entry count does not match dims")
            rows = [vals[r * nc:(r + 1) * nc] for r in range(nr)]
            maps[key] = Mat(fld, nr, nc, rows)
        missing = sorted(set(by_key) - set(maps))
        if missing:
            raise InvalidModuleFile(f"arrows (edge, dir) = {missing} are missing")
        try:
            return PModule(g, fld, dims, maps)
        except InternalRelationFailure as exc:
            raise InvalidModuleFile(str(exc)) from exc

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @staticmethod
    def load(path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidModuleFile(f"not valid JSON: {exc}") from exc
        return PModule.from_dict(data)


class ModuleMap:
    """A morphism of modules: one matrix per vertex, commuting with arrows."""

    def __init__(self, source, target, mats, check=True):
        self.source = source
        self.target = target
        self.mats = tuple(mats)
        if check:
            self.validate()

    def mat_at(self, i):
        return self.mats[i - 1]

    def validate(self):
        if self.source.graph != self.target.graph:
            raise ValueError("morphism endpoints live over different graphs")
        for a in arrows_of(self.source.graph):
            lhs = self.mat_at(a.tgt) @ self.source.arrow_map(a)
            rhs = self.target.arrow_map(a) @ self.mat_at(a.src)
            if lhs.rows != rhs.rows:  # entries are canonical in both fields
                raise ValueError(f"morphism fails to commute with arrow {a}")

    def is_injective(self):
        return all(rank(m) == m.ncols for m in self.mats)

    def is_surjective(self):
        return all(rank(m) == m.nrows for m in self.mats)

    def is_isomorphism(self):
        return all(map(is_invertible, self.mats))

    def image(self):
        return Submodule(self.target, [col_basis(m) for m in self.mats])

    def kernel(self):
        return Submodule(self.source, [nullspace(m)[0] for m in self.mats])


class Submodule:
    """Per-vertex subspace bases (columns), closed under every arrow.

    Closure is not checked: every caller builds the bases of a kernel, an
    image, a socle or a socle chain, which are closed by construction.
    """

    def __init__(self, parent, bases):
        self.parent = parent
        self.bases = tuple(bases)

    def dim_at(self, i):
        return self.bases[i - 1].ncols

    def dims(self):
        return tuple(b.ncols for b in self.bases)

    def as_module(self):
        """The submodule as a PModule, with its inclusion morphism.

        The maps are restrictions, so the relations and nilpotency hold.
        """
        g = self.parent.graph
        f = self.parent.field
        maps = {}
        for a in arrows_of(g):
            img = self.parent.arrow_map(a) @ self.bases[a.src - 1]
            restricted = solve(self.bases[a.tgt - 1], img)
            if restricted is None:
                raise ValueError(f"subspace is not closed under arrow {a}")
            maps[(a.edge, a.dir)] = restricted
        sub = PModule(g, f, self.dims(), maps, check=False)
        incl = ModuleMap(sub, self.parent, list(self.bases), check=False)
        return sub, incl


def zero_module(g, field=None):
    field = field or default_field()
    return PModule(g, field, (0,) * g.n, {}, check=False)


def simple(g, i, field=None):
    """The one-dimensional module concentrated at vertex i."""
    g.check_vertex(i)
    field = field or default_field()
    return PModule(g, field, unit(g.n, i), {}, check=False)


def semisimple(g, mults, field=None):
    """Direct sum of vertex simples with the given multiplicities."""
    field = field or default_field()
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be nonnegative")
    return PModule(g, field, tuple(mults), {}, check=False)


def _block_sum(g, f, ms):
    """The direct sum of the modules ms over g, each map block-diagonal."""
    maps = {(a.edge, a.dir): block_diag(f, [m.arrow_map(a) for m in ms]) for a in arrows_of(g)}
    dims = tuple(sum(m.dims[i] for m in ms) for i in range(g.n))
    return PModule(g, f, dims, maps, check=False)


def direct_sum(m, n):
    if m.graph != n.graph or m.field != n.field:
        raise ValueError("direct sum needs matching graph and field")
    return _block_sum(m.graph, m.field, [m, n])


def direct_power(m, k):
    """The direct sum of k copies of m, built in one pass; m itself for
    k = 1, since modules are immutable."""
    return m if k == 1 else _block_sum(m.graph, m.field, [m] * k)


def soc_i(m, i):
    """The S_i-isotypic socle component, as a submodule at vertex i."""
    m.graph.check_vertex(i)
    f = m.field
    ker = nullspace(m.out_map(i))[0]
    bases = []
    for j in m.graph.vertices():
        bases.append(ker if j == i else Mat.zero(f, m.dim_at(j), 0))
    return Submodule(m, bases)


def top_i_dim(m, i):
    """Multiplicity of S_i in the top: corank of the incoming assembly."""
    m.graph.check_vertex(i)
    return m.dim_at(i) - rank(m.in_map(i))


def socle_dims(m):
    """Socle multiplicities (dim soc_i) for every vertex."""
    return tuple(soc_i(m, i).dim_at(i) for i in m.graph.vertices())


def quotient(m, u):
    """Quotient by a submodule, with the projection morphism.

    At each vertex one elimination (`cokernel`) gives the projection and the
    unit columns where it is the identity, which span a complement of the
    submodule. An arrow's map is the projection at its target times the
    arrow's columns at the source's units, so neither the relations nor the
    projection's commuting with the arrows is checked again.
    """
    g, f = m.graph, m.field
    units, projs = zip(*map(cokernel, u.bases))
    maps = {}
    for a in arrows_of(g):
        maps[(a.edge, a.dir)] = projs[a.tgt - 1] @ m.arrow_map(a).cols(units[a.src - 1])
    q = PModule(g, f, tuple(p.nrows for p in projs), maps, check=False)
    return q, ModuleMap(m, q, projs, check=False)


def soc_chain(m, seq):
    """Iterated socle along a vertex sequence; seq[0] is peeled first.

    Peeling j replaces the chain U by the preimage of the S_j-socle of M/U.
    That socle is zero away from j, so only U_j moves. It becomes the x in
    M_j that every arrow a: j -> t sends into U_t, the kernel of the stacked
    P_t @ M_a, where P_t is the cokernel projection of U_t: with E_j the
    unit columns where P_j is the identity, x - E_j P_j x lies in U_j, which
    M_a sends into U_t, so the quotient's arrow sends P_j x to P_t M_a x. A
    `nullspace` basis depends only on its subspace, so the bases equal those
    of the route through `quotient`, `soc_i` and a preimage at every vertex.
    """
    g, f = m.graph, m.field
    bases = [Mat.zero(f, d, 0) for d in m.dims]
    projs = [Mat.identity(f, d) for d in m.dims]
    for j in seq:
        g.check_vertex(j)
        blocks = [projs[a.tgt - 1] @ m.arrow_map(a) for a in arrows_out_of(g, j)]
        bases[j - 1] = nullspace(vstack_all(f, blocks, m.dim_at(j)))[0]
        projs[j - 1] = cokernel(bases[j - 1])[1]
    return Submodule(m, bases)
