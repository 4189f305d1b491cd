"""The four workloads: fixed item lists, each item with its own seed.

An item is one unit of program work (`run`) and a check of its output
(`check`, returning a list of problems). The data of every item list are
fixed, so that a round costs the same under every seed; the workload seed
and the item's index give the item's seed, which drives every random draw
the program makes for it (extension coefficients, morphism samples, the
random corpus). `run` starts from that seed each time, so repeated rounds
repeat the same operations.

The program is reached only through module attributes looked up at call
time (`prog.prepmod.build_filtered`, ...), so the wrappers of a traced run
see every call.
"""

import hashlib
import importlib
import itertools
import random

import oracle

PRIME = 2**61 - 1
# sample-small: A3 data spread over the grid {0,1,2}^6 by a fixed stride,
# cycling through the 16 longest words, then the whole {0,1,2}^4 grid on
# the D4 word through the trivalent vertex.
SMALL_A3_ITEMS = 120
SMALL_A3_STRIDE = 37
SMALL_D4_WORD = (1, 2, 3, 2)
# sample-large: entries 5-8 on one A3 longest word; total dims 50-80.
LARGE_DATA = (
    (5, 6, 5, 7, 6, 5),
    (8, 7, 8, 6, 7, 8),
    (6, 6, 6, 6, 6, 6),
    (7, 5, 8, 5, 7, 6),
    (5, 8, 6, 8, 5, 7),
)
# families: every reduced word up to these lengths.
FAMILY_MAXLEN = (("a3", 5), ("d4", 3), ("affine_a1", 6))
# reflect-rat: the random corpus module of each item has a scheduled total
# dimension. An item's cost grows steeply with that dimension, so drawing
# it freely would let the cost of a round swing with the seed.
REFLECT_GRAPHS = ("a3", "d4")
REFLECT_TOTAL_DIMS = (1, 2, 3, 4, 5, 6)
REFLECT_REPEATS = 5
REFLECT_POOL = 120
REFLECT_SEARCH_CAP = 10000


def item_seed(seed, workload, index):
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Item:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Program:
    """The nilcrystal modules a workload calls, and the graph files."""

    def __init__(self, root):
        self.rootsys = importlib.import_module("nilcrystal.rootsys")
        self.fields = importlib.import_module("nilcrystal.fields")
        self.errors = importlib.import_module("nilcrystal.errors")
        self.prepmod = importlib.import_module("nilcrystal.prepmod")
        self.veritas = importlib.import_module("nilcrystal.veritas")
        self.graph_dir = root / "graphs"

    def graph(self, name):
        g = self.rootsys.CartanGraph.from_file(self.graph_dir / f"{name}.json")
        return g, oracle.cartan(g.n, g.edges)


def _longest_words(a):
    words = oracle.reduced_words(a, 6)
    return [w for w in words if len(w) == 6]


def _sample_item(prog, g, a, word, datum, seed):
    pm = prog.prepmod
    fld = prog.fields.PrimeField(PRIME)
    w = prog.rootsys.WeylWord(word)
    budget = prog.veritas.RETRY_BUDGET

    def run():
        rng = random.Random(seed)
        for _ in range(1 + budget):
            x = pm.build_filtered(g, w, datum, rng, field=fld)
            try:
                return x, pm.extract_datum(g, w, x)
            except prog.errors.NotInGenericStratum:
                continue
        raise RuntimeError(f"no generic sample of {word} {datum} within the retry budget")

    def check(out):
        x, got = out
        maps = {key: m.rows for key, m in x.maps.items()}
        return oracle.check_sample(a, g.edges, word, datum, x.dims, maps, fld.p, got)

    return Item(f"{word} {datum}", run, check)


def sample_small(prog, seed):
    g3, a3 = prog.graph("a3")
    gd, ad = prog.graph("d4")
    longest = _longest_words(a3)
    cases = []
    for m in range(SMALL_A3_ITEMS):
        p = (SMALL_A3_STRIDE * m) % 3**6
        cases.append((g3, a3, longest[m % len(longest)],
                      tuple((p // 3**k) % 3 for k in range(6))))
    for datum in itertools.product(range(3), repeat=len(SMALL_D4_WORD)):
        cases.append((gd, ad, SMALL_D4_WORD, datum))
    return [_sample_item(prog, g, a, w, d, item_seed(seed, "sample-small", j))
            for j, (g, a, w, d) in enumerate(cases)]


def sample_large(prog, seed):
    g3, a3 = prog.graph("a3")
    word = _longest_words(a3)[0]
    return [_sample_item(prog, g3, a3, word, d, item_seed(seed, "sample-large", j))
            for j, d in enumerate(LARGE_DATA)]


def _family_item(prog, g, a, word, injectives, seed):
    pm = prog.prepmod
    fld = prog.fields.PrimeField(PRIME)
    w = prog.rootsys.WeylWord(word)

    def run():
        rng = random.Random(seed)
        layers = []
        for k in range(1, len(word) + 1):
            m_ref = pm.m_module(g, w, k, route="reflection", field=fld)
            m_cok = pm.m_module(g, w, k, route="cokernel", field=fld, rng=rng)
            v = pm.v_module(g, w, k, field=fld)
            iso = pm.is_iso(m_ref, m_cok, rng=rng)
            chain = None
            if injectives:
                sub = pm.soc_chain(injectives[word[k - 1]], tuple(reversed(word[:k])))
                vsc, _ = sub.as_module()
                chain = (vsc.dims, pm.is_iso(vsc, v, rng=rng))
            layers.append((m_ref.dims, m_cok.dims, v.dims, iso, chain))
        return layers

    return Item(f"{word}", run, lambda layers: oracle.check_family(a, word, layers))


def families(prog, seed):
    fld = prog.fields.PrimeField(PRIME)
    items = []
    for name, maxlen in FAMILY_MAXLEN:
        g, a = prog.graph(name)
        injectives = None
        if name == "a3":
            injectives = {i: prog.prepmod.injective_module(g, i, fld) for i in g.vertices()}
        for word in oracle.reduced_words(a, maxlen):
            s = item_seed(seed, "families", len(items))
            items.append(_family_item(prog, g, a, word, injectives, s))
    return items


def _corpus_seeds(prog, g, fld, seed, gname):
    """REFLECT_REPEATS seeds per scheduled total dimension of the corpus.

    Draws at least REFLECT_POOL candidate seeds (more only if a class is
    still short), so that the set-up cost does not swing with the seed.
    """
    want = {d: REFLECT_REPEATS for d in REFLECT_TOTAL_DIMS}
    found = {d: [] for d in REFLECT_TOTAL_DIMS}
    for t in range(REFLECT_SEARCH_CAP):
        if t >= REFLECT_POOL and not any(want.values()):
            return found
        s = item_seed(seed, f"reflect-rat:{gname}", t)
        d = prog.veritas.random_corpus(g, 1, random.Random(s), fld)[0].total_dim
        if want.get(d):
            want[d] -= 1
            found[d].append(s)
    raise RuntimeError(f"corpus classes {want} not filled in {REFLECT_SEARCH_CAP} seeds")


def _reflect_item(prog, g, fld, seed):
    ver = prog.veritas

    def run():
        rep = ver.check_reflection_contracts(g, 1, random.Random(seed), fld=fld)
        mut = ver.check_reflection_contracts(g, 1, random.Random(seed), fld=fld, twist=-1)
        return rep.outcome, rep.passed, mut.outcome, (mut.witness or {}).get("kind")

    return Item(f"{g.n} vertices seed {seed}", run,
                lambda out: oracle.check_reflection(*out))


def reflect_rat(prog, seed):
    fld = prog.fields.RationalField()
    chosen = []
    for name in REFLECT_GRAPHS:
        g = prog.graph(name)[0]
        chosen.append((g, _corpus_seeds(prog, g, fld, seed, name)))
    return [_reflect_item(prog, g, fld, seeds[d][r])
            for r in range(REFLECT_REPEATS) for d in REFLECT_TOTAL_DIMS
            for g, seeds in chosen]


WORKLOADS = {
    "sample-small": sample_small,
    "sample-large": sample_large,
    "families": families,
    "reflect-rat": reflect_rat,
}
