"""Cartan graphs, roots, weights, reduced words and braid combinatorics.

Conventions: vertices are 1-based. A word is a plain tuple of ints in
application order, so word[0] is the first reflection applied; WeylWord
turns letters from outside into one, and serialized lists follow the same
order. Roots and weights are plain tuples of ints, roots in simple-root
coordinates and weights in fundamental-weight coordinates; unit(n, i) is
alpha_i or varpi_i. braid_walk is the one search of a braid class:
reduced_words collects it, and crystal.transport carries a datum along it
to every word of the class.
"""

import functools
import json
from collections import Counter
from dataclasses import dataclass

from .errors import CapExceeded, GraphTooLarge, InvalidVertex, LengthMismatch, NonReducedWord

# The most vertices a graph read from a file may have. The Cartan matrix
# alone is n x n, so a larger file is refused before anything is built;
# graphs made in code, such as a_n(30), are not capped.
FILE_VERTEX_CAP = 64


@dataclass(frozen=True)
class CartanGraph:
    """Loop-free multigraph with a chosen orientation per edge.

    `edges` stores oriented pairs (u, v); the orientation only fixes signs
    in the preprojective relations and never affects root combinatorics.
    """

    n: int
    edges: tuple = ()

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidVertex(f"edge ({u},{v}) outside 1..{self.n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
        object.__setattr__(self, "edges", tuple((u, v) for (u, v) in self.edges))

    def check_vertex(self, i):
        if not (1 <= i <= self.n):
            raise InvalidVertex(f"vertex {i} outside 1..{self.n}")

    def edge_count(self, i, j):
        return sum(1 for (u, v) in self.edges if {u, v} == {i, j})

    def cartan(self):
        """The derived symmetric Cartan matrix as nested lists (0-indexed)."""
        a = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            a[i][i] = 2
        for (u, v) in self.edges:
            a[u - 1][v - 1] -= 1
            a[v - 1][u - 1] -= 1
        return a

    @functools.cached_property
    def finite_type(self):
        """Whether the Cartan matrix is positive definite (Dynkin type), once
        per graph: Sylvester's criterion by Bareiss elimination, whose k-th
        pivot is the k-th leading principal minor while the earlier ones are
        positive."""
        a, prev = self.cartan(), 1
        for k in range(self.n):
            if a[k][k] <= 0:
                return False
            for i in range(k + 1, self.n):
                for j in range(k + 1, self.n):
                    a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return True

    def vertices(self):
        return range(1, self.n + 1)

    @staticmethod
    def from_dict(data):
        """The graph of a JSON object; ValueError on a missing or mistyped field."""
        if not isinstance(data, dict):
            raise ValueError("a graph must be a JSON object")
        n = data.get("vertices")
        if type(n) is not int or n < 0:
            raise ValueError(f"vertices must be a nonnegative integer, got {n!r}")
        if n > FILE_VERTEX_CAP:
            raise GraphTooLarge(f"a graph may have at most {FILE_VERTEX_CAP} vertices, got {n}")
        edges = _vertex_pairs(data.get("edges", []), "edges")
        orient = data.get("orientation")
        if orient is not None:
            oriented = _vertex_pairs(orient, "orientation")
            if Counter(map(frozenset, oriented)) != Counter(map(frozenset, edges)):
                raise ValueError("orientation does not match the edge multiset")
            edges = oriented
        else:
            edges = [(min(u, v), max(u, v)) for (u, v) in edges]
        return CartanGraph(n, tuple(edges))

    @staticmethod
    def from_file(path):
        with open(path) as fh:
            return CartanGraph.from_dict(json.load(fh))

    def to_dict(self):
        return {"vertices": self.n, "edges": [list(e) for e in self.edges]}


def _vertex_pairs(pairs, key):
    if not isinstance(pairs, list) or any(
        not isinstance(e, list) or len(e) != 2 or any(type(x) is not int for x in e)
        for e in pairs
    ):
        raise ValueError(f"{key} must be a list of pairs of vertices")
    return [tuple(e) for e in pairs]


# Stock graphs used throughout the test suites.
def a_n(n):
    return CartanGraph(n, tuple((i, i + 1) for i in range(1, n)))


def d4(center=2):
    others = [i for i in range(1, 5) if i != center]
    return CartanGraph(4, tuple((min(o, center), max(o, center)) for o in others))


def affine_a1():
    return CartanGraph(2, ((1, 2), (1, 2)))


def unit(n, i):
    """The i-th unit vector of length n: alpha_i in the root basis, varpi_i in
    the weight basis."""
    return (0,) * (i - 1) + (1,) + (0,) * (n - i)


def WeylWord(letters=()):
    """The word of some letters, in application order: letters[0] acts first.

    ValueError for a letter that is not an int (bool included): int(1.9)
    would truncate it."""
    word = tuple(letters)
    if any(type(i) is not int for i in word):
        raise ValueError(f"word letters must be integers, got {word!r}")
    return word


def reflect_root(g, i, v):
    """Simple reflection on a root-basis vector: v - <v, alpha_i^vee> alpha_i."""
    g.check_vertex(i)
    a = g.cartan()
    out = list(v)
    out[i - 1] -= sum(a[i - 1][j] * v[j] for j in range(g.n))
    return tuple(out)


def reflect_weight(g, i, lam):
    """Simple reflection on a weight-basis vector: lam - lam_i alpha_i."""
    g.check_vertex(i)
    a = g.cartan()
    c = lam[i - 1]
    # alpha_i in the weight basis is the i-th row of the Cartan matrix.
    return tuple(lam[j] - c * a[i - 1][j] for j in range(g.n))


def apply_word_to_weight(g, w, lam):
    for i in w:
        lam = reflect_weight(g, i, lam)
    return lam


def beta_sequence(g, w):
    """The positive roots attached to a reduced word.

    Entry k is the image of alpha_{w[k]} under the first k reflections
    (k = 0 gives the bare simple root). Raises NonReducedWord as soon as
    a negative root appears.
    """
    for i in w:
        g.check_vertex(i)
    betas = []
    for k, i in enumerate(w):
        b = unit(g.n, i)
        for j in reversed(w[:k]):
            b = reflect_root(g, j, b)
        if not (min(b) >= 0 and any(b)):
            raise NonReducedWord(f"word {w} is not reduced (step {k + 1})")
        betas.append(b)
    return betas


# Reducedness depends only on (graph, word), both frozen and hashable; the
# families and the sampler ask it again for every layer of every word.
_REDUCED_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_REDUCED_CACHE_SIZE)
def is_reduced(g, w):
    try:
        beta_sequence(g, w)
        return True
    except NonReducedWord:
        return False


def require_reduced(g, w):
    if not is_reduced(g, w):
        raise NonReducedWord(f"word {w} is not reduced")


def mu(g, w, a):
    """Weighted sum of the beta-sequence: the stratum dimension vector."""
    if len(a) != len(w):
        raise LengthMismatch(f"|a|={len(a)} but word length is {len(w)}")
    betas = beta_sequence(g, w)
    return tuple(sum(ak * bk[j] for ak, bk in zip(a, betas)) for j in range(g.n))


def braid_moves(g, w):
    """All Tits moves applicable to a reduced word.

    Returns a list of (position, kind, moved_word) with kind in
    {"2-move", "3-move"}; positions are 0-based in application order.
    """
    require_reduced(g, w)
    a = g.cartan()
    out = []
    for p in range(len(w) - 1):
        i, j = w[p], w[p + 1]
        if i != j and a[i - 1][j - 1] == 0:
            out.append((p, "2-move", w[:p] + (j, i) + w[p + 2:]))
    for p in range(len(w) - 2):
        i, j, k = w[p], w[p + 1], w[p + 2]
        if i == k and i != j and a[i - 1][j - 1] == -1:
            out.append((p, "3-move", w[:p] + (j, i, j) + w[p + 3:]))
    return out


def braid_walk(g, w, cap=10000):
    """Depth-first walk of the braid class of a reduced word.

    Yields (word, parent, (pos, kind)) once per word of the class, w first
    with parent and move None; the move at pos of parent gives word.
    Raises CapExceeded as soon as more than cap words are seen.
    """
    require_reduced(g, w)
    seen = {w}
    stack = [(w, None, None)]
    while stack:
        cur, parent, move = stack.pop()
        yield cur, parent, move
        for pos, kind, moved in braid_moves(g, cur):
            if moved not in seen:
                seen.add(moved)
                if len(seen) > cap:
                    raise CapExceeded(f"braid class exceeds cap {cap}")
                stack.append((moved, cur, (pos, kind)))


def reduced_words(g, w, cap=10000):
    """Braid class of a reduced word, capped."""
    return {word for word, _, _ in braid_walk(g, w, cap)}


def all_reduced_words_upto(g, maxlen):
    """Every reduced word of length <= maxlen, grouped by length.

    Uses plain extension search, so it also works for infinite Weyl groups.
    """
    by_len = {0: [()]}
    for l in range(1, maxlen + 1):
        cur = []
        for w in by_len[l - 1]:
            for i in g.vertices():
                cand = w + (i,)
                if is_reduced(g, cand):
                    cur.append(cand)
        by_len[l] = cur
    return by_len
