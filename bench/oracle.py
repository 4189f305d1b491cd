"""Expected outputs computed by the benchmark itself, and the output checks.

Nothing here calls nilcrystal. From a graph's edge list it builds integer
reflection matrices; their products give the beta roots, the stratum
dimension vector mu(w, a) and the weight drops that are the dimension
vectors of the V_k. Socle dimensions of a sampled module are ranks of its
outgoing maps, computed by a Gaussian elimination mod p of its own. Each
check returns a list of problems; an empty list means the output is right.
"""


def cartan(n, edges):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v in edges:
        a[u - 1][v - 1] -= 1
        a[v - 1][u - 1] -= 1
    return a


def _identity(n):
    return [[1 if r == c else 0 for c in range(n)] for r in range(n)]


def _mul(x, y):
    return [[sum(x[r][k] * y[k][c] for k in range(len(y))) for c in range(len(y[0]))]
            for r in range(len(x))]


def reflection(a, i):
    """s_i on root coordinates: v -> v - <v, alpha_i^vee> alpha_i."""
    m = _identity(len(a))
    for c in range(len(a)):
        m[i - 1][c] -= a[i - 1][c]
    return m


def betas(a, word):
    """beta_k = s_{w[0]} ... s_{w[k-2]} alpha_{w[k-1]} (word[0] acts first)."""
    n = len(a)
    acc = _identity(n)
    out = []
    for i in word:
        out.append(tuple(acc[r][i - 1] for r in range(n)))
        acc = _mul(acc, reflection(a, i))
    return out


def is_reduced(a, word):
    return all(all(c >= 0 for c in b) and any(b) for b in betas(a, word))


def reduced_words(a, maxlen):
    """Every reduced word of length 1..maxlen, by length then letters."""
    n = len(a)
    out, frontier = [], [()]
    for _ in range(maxlen):
        frontier = [w + (i,) for w in frontier for i in range(1, n + 1)
                    if is_reduced(a, w + (i,))]
        out.extend(frontier)
    return out


def mu(a, word, datum):
    n = len(a)
    return tuple(sum(d * b[r] for d, b in zip(datum, betas(a, word))) for r in range(n))


def v_dims(a, word, k):
    """Dimension vector of V_k: the drop varpi - s_{w[0]}..s_{w[k-1]} varpi.

    varpi is the fundamental weight of the k-th letter. Writing a weight as
    varpi - D with D in root coordinates, s_j sends D to
    D + (varpi_j - sum_c a_jc D_c) alpha_j: an integer affine reflection,
    kept as an (n+1)x(n+1) matrix acting on (D, 1).
    """
    n = len(a)
    lam = [1 if j == word[k - 1] else 0 for j in range(1, n + 1)]
    acc = _identity(n + 1)
    for j in word[:k]:
        r = _identity(n + 1)
        for c in range(n):
            r[j - 1][c] -= a[j - 1][c]
        r[j - 1][n] = lam[j - 1]
        acc = _mul(acc, r)
    return tuple(acc[r][n] for r in range(n))


def rank_mod(rows, ncols, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], prow)]
        rows[rank] = prow
        rank += 1
    return rank


def socle_dim(edges, dims, maps, i, p):
    """dim of the S_i part of the socle: dims[i] - rank of the maps out of i.

    `maps` is keyed by (edge index, direction) with row-list matrices; edge
    (u, v) gives the arrow u -> v under +1 and v -> u under -1.
    """
    stacked = []
    for e, (u, v) in enumerate(edges):
        if u == i:
            stacked.extend(maps[(e, +1)])
        if v == i:
            stacked.extend(maps[(e, -1)])
    return dims[i - 1] - rank_mod(stacked, dims[i - 1], p)


def check_sample(a, edges, word, datum, dims, maps, p, got):
    """A stratum sample: dims mu(w, a), socle law at w[0], datum read back."""
    problems = []
    want = mu(a, word, datum)
    if tuple(dims) != want:
        problems.append(f"dims {tuple(dims)} != mu {want}")
    elif socle_dim(edges, dims, maps, word[0], p) != datum[0]:
        problems.append(f"socle at {word[0]} is not {datum[0]}")
    if tuple(got) != tuple(datum):
        problems.append(f"extracted {tuple(got)} != {tuple(datum)}")
    return problems


def check_family(a, word, layers):
    """Per k: (M_k dims by reflection, by cokernel, V_k dims, routes iso,
    socle-chain (dims, iso) or None)."""
    problems = []
    bs = betas(a, word)
    for k, (m_ref, m_cok, v, iso, chain) in enumerate(layers, start=1):
        if tuple(m_ref) != bs[k - 1] or tuple(m_cok) != bs[k - 1]:
            problems.append(f"k={k}: M_k dims {m_ref}/{m_cok} != beta {bs[k - 1]}")
        if not iso:
            problems.append(f"k={k}: the two M_k routes are not isomorphic")
        want = v_dims(a, word, k)
        if tuple(v) != want:
            problems.append(f"k={k}: V_k dims {v} != weight drop {want}")
        if chain is not None and (tuple(chain[0]) != want or not chain[1]):
            problems.append(f"k={k}: socle-chain submodule {chain} is not V_k")
    if len(layers) != len(word):
        problems.append(f"{len(layers)} layers for a word of length {len(word)}")
    return problems


def check_reflection(outcome, passed, mutated_outcome, mutated_kind):
    problems = []
    if not passed:
        problems.append(f"reflection contracts report {outcome}")
    if mutated_outcome != "fail" or mutated_kind != "construction":
        problems.append(
            f"mutated convention gave {mutated_outcome}/{mutated_kind}, "
            "not fail/construction")
    return problems
