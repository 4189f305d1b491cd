"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All equalities over exact fields are required exactly; randomized
isomorphism checks run over the default prime field (2^61 - 1) with a
per-instance false-negative bound of 2^-40; sampling-based steps get 8
retries and the observed miss rates are asserted below.
"""

import itertools
import random
import time


from nilcrystal import veritas
from nilcrystal.errors import NotInGenericStratum
from nilcrystal.fields import default_field
from nilcrystal.prepmod import build_filtered, extract_datum, simple, soc_i
from nilcrystal.rootsys import (
    a_n,
    affine_a1,
    all_reduced_words_upto,
    beta_sequence,
    d4,
    is_reduced,
)

F = default_field()
GRAPHS = {"A2": a_n(2), "A3": a_n(3), "D4": d4(), "affine A1": affine_a1()}


def report(capfd, n, label, ok, elapsed):
    with capfd.disabled():
        print(f"[acceptance] criterion {n} ({label}): "
              f"{'PASS' if ok else 'FAIL'} in {elapsed:.1f}s")
    assert ok, f"criterion {n} failed"


# -- independent oracles ------------------------------------------------


def reflection_matrix(g, i):
    """s_i acting on root coordinates, as an explicit integer matrix."""
    a = g.cartan()
    n = g.n
    m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c in range(n):
        m[i - 1][c] -= a[i - 1][c]
    return m


def mat_mul(x, y):
    n = len(x)
    return [[sum(x[r][k] * y[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def mat_vec(m, v):
    return tuple(sum(m[r][c] * v[c] for c in range(len(v)))
                 for r in range(len(m)))


def beta_oracle(g, w):
    """Brute-force betas: multiply reflection matrices, no shared code path."""
    n = g.n
    out = []
    acc = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for k, i in enumerate(w):
        alpha = tuple(1 if j == i - 1 else 0 for j in range(n))
        out.append(mat_vec(acc, alpha))
        acc = mat_mul(acc, reflection_matrix(g, i))
    return out


def group_lengths(g):
    """Exhaustive BFS over the finite Weyl group: matrix -> length."""
    n = g.n
    ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    gens = [tuple(tuple(row) for row in reflection_matrix(g, i))
            for i in g.vertices()]
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for s in gens:
                prod = tuple(tuple(r) for r in mat_mul([list(r) for r in m],
                                                       [list(r) for r in s]))
                if prod not in lengths:
                    lengths[prod] = lengths[m] + 1
                    nxt.append(prod)
        frontier = nxt
    return lengths


def test_criterion_1_beta_layer(capfd):
    t0 = time.time()
    ok = True
    for name, g in GRAPHS.items():
        by_len = all_reduced_words_upto(g, 6)
        for l in range(1, 7):
            for w in by_len[l]:
                got = beta_sequence(g, w)
                if got != beta_oracle(g, w):
                    ok = False
    # Reducedness agrees with exhaustive length comparison in finite type.
    for name in ("A2", "A3", "D4"):
        g = GRAPHS[name]
        lengths = group_lengths(g)
        for l in range(1, 6):
            for w in itertools.product(g.vertices(), repeat=l):
                acc = [[1 if r == c else 0 for c in range(g.n)]
                       for r in range(g.n)]
                for i in w:
                    acc = mat_mul(acc, reflection_matrix(g, i))
                exhaustive = lengths[tuple(tuple(r) for r in acc)] == l
                if is_reduced(g, w) != exhaustive:
                    ok = False
    elapsed = time.time() - t0
    report(capfd, 1, "beta/mu layer vs brute-force oracle", ok and elapsed < 10,
           elapsed)


def test_criterion_2_reflection_functor_suite(capfd):
    t0 = time.time()
    ok = True
    for name, g in GRAPHS.items():
        rng = random.Random(veritas.derive_seed(2026, f"reflection-contracts:{name}"))
        r = veritas.check_reflection_contracts(g, 100, rng)
        ok = ok and r.passed
    # The flipped sign convention must fail wherever a witness exists.
    for name in ("A3", "D4"):
        rng = random.Random(veritas.derive_seed(2026, f"mutated:{name}"))
        r = veritas.check_reflection_contracts(GRAPHS[name], 10, rng, twist=-1)
        ok = ok and r.outcome == "fail"
    elapsed = time.time() - t0
    report(capfd, 2, "reflection functor contracts + sign mutation",
           ok and elapsed < 120, elapsed)


def test_criterion_3_module_families(capfd):
    t0 = time.time()
    rng = random.Random(veritas.derive_seed(2026, "modules"))
    ok = True
    r = veritas.check_modules(a_n(3), 6, rng=rng, socle_chain_oracle=True)
    ok = ok and r.passed
    r = veritas.check_modules(d4(), 5, rng=rng)
    ok = ok and r.passed
    r = veritas.check_modules(affine_a1(), 6, rng=rng)
    ok = ok and r.passed
    r = veritas.check_modules(a_n(2), 3, rng=rng, socle_chain_oracle=True)
    ok = ok and r.passed
    elapsed = time.time() - t0
    report(capfd, 3, "module family laws over all short reduced words",
           ok and elapsed < 600, elapsed)


def _roundtrip_stats(g, w, grid, samples, rng):
    total = successes = soc_ok = 0
    for a in grid:
        for _ in range(samples):
            total += 1
            x = build_filtered(g, w, a, rng, field=F)
            if soc_i(x, w[0]).dim_at(w[0]) == a[0]:
                soc_ok += 1
            got = None
            try:
                got = extract_datum(g, w, x)
            except NotInGenericStratum:
                for _ in range(veritas.RETRY_BUDGET):
                    x2 = build_filtered(g, w, a, rng, field=F)
                    try:
                        got = extract_datum(g, w, x2)
                        break
                    except NotInGenericStratum:
                        continue
            if got == tuple(a):
                successes += 1
    return total, successes, soc_ok


def test_criterion_4_extraction_roundtrip(capfd):
    t0 = time.time()
    rng = random.Random(veritas.derive_seed(2026, "roundtrip"))
    g2, w2 = a_n(2), (1, 2, 1)
    grid2 = list(itertools.product(range(3), repeat=3))
    t2, s2, soc2 = _roundtrip_stats(g2, w2, grid2, 5, rng)
    g3 = a_n(3)
    w3 = all_reduced_words_upto(g3, 6)[6][0]
    grid3 = list(itertools.product(range(2), repeat=6))
    t3, s3, soc3 = _roundtrip_stats(g3, w3, grid3, 5, rng)
    ok = (s2 + s3) / (t2 + t3) >= 0.99 and soc2 == t2 and soc3 == t3
    elapsed = time.time() - t0
    report(capfd, 4, "extraction round trip with socle law", ok and elapsed < 300,
           elapsed)


def test_criterion_5_crystal_module_agreement(capfd):
    t0 = time.time()
    rng = random.Random(veritas.derive_seed(2026, "cross-model"))
    ok = True
    r = veritas.check_cross_model(a_n(2), (1, 2, 1), 2, 5, rng)
    ok = ok and r.passed
    g3 = a_n(3)
    w3 = all_reduced_words_upto(g3, 6)[6][0]
    r = veritas.check_cross_model(g3, w3, 1, 2, rng)
    ok = ok and r.passed
    # The non-adaptable four-letter word through the trivalent vertex.
    r = veritas.check_cross_model(d4(), (1, 2, 3, 2), 1, 2, rng)
    ok = ok and r.passed
    elapsed = time.time() - t0
    report(capfd, 5, "crystal extraction matches module extraction",
           ok and elapsed < 300, elapsed)


def test_criterion_6_transition_coherence(capfd):
    t0 = time.time()
    rng = random.Random(veritas.derive_seed(2026, "transitions"))
    ok = True
    r = veritas.check_transitions(a_n(2), (1, 2, 1), 2, rng)
    ok = ok and r.passed and r.details["sampling_misses"] == 0
    g3 = a_n(3)
    words = all_reduced_words_upto(g3, 6)[6]
    assert len(words) == 16
    misses = samples = 0
    for w in words:
        r = veritas.check_transitions(g3, w, 1, rng)
        ok = ok and r.passed
        misses += r.details["sampling_misses"]
        samples += r.details["samples"]
    ok = ok and misses <= 0.01 * samples
    elapsed = time.time() - t0
    report(capfd, 6, "transition maps across all braid-adjacent pairs",
           ok and elapsed < 300, elapsed)


def test_criterion_7_hand_trace(capfd):
    t0 = time.time()
    g = a_n(2)
    w = (1, 2, 1)
    trace = []
    a = extract_datum(g, w, simple(g, 2, field=F), trace=trace)
    dims = [d for (_, d) in trace]
    ok = (a == (0, 0, 1)
          and dims == [(1, 1), (1, 0), (0, 0)]
          and [e for (e, _) in trace] == [0, 0, 1])
    elapsed = time.time() - t0
    report(capfd, 7, "worked hand trace for the vertex simple", ok and elapsed < 1,
           elapsed)
