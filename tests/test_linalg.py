import hashlib
import json
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcrystal import linalg
from nilcrystal.fields import (
    PrimeField,
    RationalField,
    default_field,
    field_from_spec,
    field_size,
)
from nilcrystal.linalg import (
    Mat,
    block_diag,
    cokernel,
    col_basis,
    hstack_all,
    kernel_vectors,
    nullspace,
    rank,
    rref,
    vstack_all,
)
from nilcrystal.prepmod import build_filtered, extract_datum
from nilcrystal.rootsys import a_n

FIELDS = [PrimeField(997), RationalField()]


def int_mat(f, rows):
    return Mat(f, len(rows), len(rows[0]), [[f.of_int(x) for x in r] for r in rows])


def rand_mat(f, nr, nc, rng):
    return Mat(f, nr, nc, [[f.of_int(rng.randrange(-4, 5)) for _ in range(nc)]
                           for _ in range(nr)])


@pytest.mark.parametrize("f", FIELDS)
def test_identity_and_mul(f):
    i = Mat.identity(f, 3)
    m = rand_mat(f, 3, 3, random.Random(0))
    assert (i @ m).rows == m.rows
    assert (m @ i).rows == m.rows


@pytest.mark.parametrize("f", FIELDS)
def test_rank_nullity(f):
    rng = random.Random(1)
    for _ in range(20):
        nr, nc = rng.randrange(0, 5), rng.randrange(0, 5)
        m = rand_mat(f, nr, nc, rng)
        ns, free = nullspace(m)
        assert rank(m) + ns.ncols == nc
        prod = m @ ns
        assert all(x == f.zero for row in prod.rows for x in row)
        assert ns.rows_at(free) == Mat.identity(f, len(free))


def test_mat_is_unhashable():
    with pytest.raises(TypeError):
        hash(Mat.zero(PrimeField(997), 1, 1))


@pytest.mark.parametrize("f", FIELDS)
def test_cokernel_projects_onto_a_unit_complement(f):
    rng = random.Random(3)
    cases = [rand_mat(f, 4, 2, rng) for _ in range(6)]  # full column rank
    cases += [rand_mat(f, 5, 2, rng) @ rand_mat(f, 2, 4, rng) for _ in range(4)]
    cases += [Mat.zero(f, 3, 2), Mat.zero(f, 3, 0), Mat.identity(f, 3), Mat.zero(f, 0, 2)]
    for b in cases:
        n = b.nrows
        units, p = cokernel(b)
        r = rank(b)
        assert (len(units), p.nrows, p.ncols) == (n - r, n - r, n)
        assert (p @ b).is_zero()
        assert p.cols(units) == Mat.identity(f, n - r)
        # The unit vectors at units complete the column basis of b.
        assert rank(hstack_all(f, [col_basis(b), Mat.identity(f, n).cols(units)], n)) == n


def cokernel_of_b_with_identity(b):
    """The cokernel read off the RREF of [b | I]: its pivots in the I-block
    are the units, and the I-block of the rows below b's r pivots is P."""
    f, n, k = b.field, b.nrows, b.ncols
    R, pivots = rref(hstack_all(f, [b, Mat.identity(f, n)], n))
    r = sum(p < k for p in pivots)
    return [p - k for p in pivots[r:]], Mat(f, n - r, n, [row[k:] for row in R.rows[r:]])


@pytest.mark.parametrize("f", FIELDS + [PrimeField(3)])
def test_cokernel_units_are_the_greedy_completion_from_the_first_index(f):
    # Any complement of image(b) gives a valid projection, but the reflected
    # modules depend on this one: each unit, first index first, is taken
    # when it is independent of image(b) and the units before it.
    rng = random.Random(5)
    cases = [rand_mat(f, rng.randrange(7), rng.randrange(7), rng) for _ in range(12)]
    cases += [rand_mat(f, nr, nc, rng) for nr, nc in ((5, 2), (2, 6), (4, 4))]
    cases += [low_rank_mat(f, nr, nc, rk, rng)
              for nr, nc, rk in ((6, 4, 2), (4, 7, 2), (7, 7, 1), (5, 5, 0))]
    cases += [Mat.zero(f, 4, 3), Mat.zero(f, 0, 3), Mat.zero(f, 4, 0), Mat.zero(f, 0, 0)]
    for b in cases:
        units, p = cokernel(b)
        e = Mat.identity(f, b.nrows)
        for j in range(b.nrows):
            before = hstack_all(f, [b, e.cols([u for u in units if u < j])], b.nrows)
            assert (j in units) == (rank(hstack_all(f, [before, e.cols([j])], b.nrows))
                                    > rank(before))
        assert (units, p) == cokernel_of_b_with_identity(b)


def test_cokernel_eliminates_one_k_by_n_matrix(monkeypatch):
    # The cokernel of an n x k matrix costs one elimination of b^T, not of
    # the n x (n + k) matrix [b | I].
    # The projection is read off that RREF: no nullspace basis is built.
    f, rng, real, shapes = PrimeField(997), random.Random(6), linalg.rref, []
    monkeypatch.setattr(linalg, "rref", lambda m: shapes.append((m.nrows, m.ncols)) or real(m))
    monkeypatch.setattr(linalg, "nullspace", lambda m: pytest.fail("cokernel built a nullspace"))
    for n, k in ((7, 3), (3, 7), (6, 6)):  # tall, wide, square
        for b in (rand_mat(f, n, k, rng), low_rank_mat(f, n, k, 2, rng)):
            shapes.clear()
            cokernel(b)
            assert shapes == [(k, n)]


def test_zero_dim_matrices():
    f = RationalField()
    z = Mat.zero(f, 0, 3)
    assert rank(z) == 0
    assert nullspace(z)[0].ncols == 3
    z2 = Mat.zero(f, 3, 0)
    assert nullspace(z2)[0].ncols == 0
    assert (z @ nullspace(z)[0]).nrows == 0


def test_field_from_spec():
    f = field_from_spec("prime:997")
    assert field_size(f) == 997
    assert field_size(field_from_spec("rat")) is None
    with pytest.raises(ValueError):
        field_from_spec("float")


def test_prime_field_str_roundtrip():
    f = PrimeField(997)
    x = f.of_int(-5)
    assert f.from_str(f.to_str(x)) == x


def test_prime_field_rejects_composite_moduli():
    # 318665857834031151167461 is a strong pseudoprime to every base 2..37.
    for n in (15, 4294967296, 561, 3215031751, 318665857834031151167461, 1, 0):
        with pytest.raises(ValueError):
            PrimeField(n)
    f = PrimeField(2**89 - 1)
    assert f.mul(f.inv(12345), 12345) == 1


def test_rational_field_str_roundtrip():
    f = RationalField()
    x = Fraction(-3, 7)
    assert f.from_str(f.to_str(x)) == x


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rref_idempotent(rows):
    f = RationalField()
    m = Mat(f, len(rows), 3, [[f.of_int(x) for x in r] for r in rows])
    r1, piv1 = rref(m)
    r2, piv2 = rref(r1)
    assert r1.rows == r2.rows and piv1 == piv2


# -- scalar-loop references: one field call per entry ---------------------


def ref_mul(a, b):
    f = a.field
    out = []
    for r in a.rows:
        row = []
        for j in range(b.ncols):
            acc = f.zero
            for k, x in enumerate(r):
                acc = f.add(acc, f.mul(x, b.rows[k][j]))
            row.append(acc)
        out.append(row)
    return out


def ref_rref(m):
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    prow = 0
    for col in range(m.ncols):
        if prow >= m.nrows:
            break
        sel = next((i for i in range(prow, m.nrows) if not f.is_zero(rows[i][col])), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = f.inv(rows[prow][col])
        rows[prow] = [f.mul(inv, x) for x in rows[prow]]
        for i in range(m.nrows):
            if i != prow and not f.is_zero(rows[i][col]):
                c = rows[i][col]
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[prow])]
        pivots.append(col)
        prow += 1
    return rows, pivots


def ref_nullspace(m):
    f = m.field
    rows, pivots = ref_rref(m)
    basis_cols = []
    for fc in (j for j in range(m.ncols) if j not in pivots):
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for prow, pcol in enumerate(pivots):
            v[pcol] = f.neg(rows[prow][fc])
        basis_cols.append(v)
    return [[c[i] for c in basis_cols] for i in range(m.ncols)], len(basis_cols)


def low_rank_mat(f, nr, nc, rk, rng):
    """A product of random nr x rk and rk x nc factors (rank at most rk)."""
    return rand_mat(f, nr, rk, rng) @ rand_mat(f, rk, nc, rng)


def mixed_denominator_mat(f, nr, nc, rng):
    """Rationals over denominators 1-12, signs mixed, with one zero row and
    one zero column when the shape has them."""
    rows = [[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6, 7, 12)))
             for _ in range(nc)] for _ in range(nr)]
    if nr and nc:
        rows[rng.randrange(nr)] = [Fraction(0)] * nc
        zero_col = rng.randrange(nc)
        for r in rows:
            r[zero_col] = Fraction(0)
    return Mat(f, nr, nc, rows)


def sparse_mat(f, nr, nc, density, rng):
    """Entries nonzero with probability `density`, like the wide, sparse
    systems of random_extension."""
    return Mat(f, nr, nc, [[f.of_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                            if rng.random() < density else f.zero for _ in range(nc)]
                           for _ in range(nr)])


def kernel_cases(f, seed):
    rng = random.Random(seed)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 2), (4, 7), (7, 4), (9, 9)]
    mats = [rand_mat(f, nr, nc, rng) for nr, nc in shapes]
    mats += [low_rank_mat(f, nr, nc, rk, rng)
             for nr, nc, rk in ((5, 5, 2), (6, 8, 3), (8, 6, 0), (7, 7, 6))]
    mats += [sparse_mat(f, 40, 60, density, rng) for density in (0.05, 0.1)]
    # The first pivot row is a unit row, so its tail past the pivot is zero.
    unit_led = sparse_mat(f, 8, 12, 0.3, rng)
    unit_led.rows[0] = [f.of_int(5)] + [f.zero] * 11
    mats.append(unit_led)
    if isinstance(f, RationalField):
        # Integer entries alone cannot catch a wrong common-denominator rescale.
        mats += [mixed_denominator_mat(f, nr, nc, rng)
                 for nr, nc in ((1, 4), (3, 3), (5, 7), (7, 5), (8, 8))]
        mats += [mixed_denominator_mat(f, nr, rk, rng) @ mixed_denominator_mat(f, rk, nc, rng)
                 for nr, nc, rk in ((6, 6, 3), (5, 9, 4))]
    return mats, rng


@pytest.mark.parametrize("f", FIELDS)
def test_mul_matches_scalar_loops(f):
    mats, rng = kernel_cases(f, 20)
    for a in mats:
        for inner_b in (rand_mat(f, a.ncols, 0, rng), rand_mat(f, a.ncols, 5, rng)):
            prod = a @ inner_b
            assert (prod.nrows, prod.ncols) == (a.nrows, inner_b.ncols)
            assert prod.rows == ref_mul(a, inner_b)
    a, b = rand_mat(f, 3, 0, rng), rand_mat(f, 0, 4, rng)
    assert (a @ b).rows == ref_mul(a, b) == [[f.zero] * 4 for _ in range(3)]

    # Sparse factors, zero rows in A and in B, and rows with one nonzero entry.
    def sparse(nr, nc, density):
        return Mat(f, nr, nc, [[f.of_int(rng.choice((-3, -1, 1, 2, 4))) if rng.random() < density
                                else f.zero for _ in range(nc)] for _ in range(nr)])

    zero_rows = int_mat(f, [[0, 0, 0, 0], [2, 0, 0, -1], [0, 0, 0, 0]])
    single = int_mat(f, [[0, 0, 3, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 5, 0, 0]])
    cases = [(sparse(6, 7, 0.15), sparse(7, 5, 0.15)) for _ in range(8)]
    cases += [(zero_rows, single), (sparse(5, 3, 0.5), zero_rows), (single, single.transpose()),
              (Mat.zero(f, 2, 4), single), (single, Mat.zero(f, 4, 3))]
    for a, b in cases:
        assert (a @ b).rows == ref_mul(a, b)
    if isinstance(f, PrimeField):
        # Nonzero ints that are 0 mod p multiply like any other entry, and
        # every output entry comes back reduced.
        p = f.p
        a = Mat(f, 2, 3, [[p, 1, -p], [2 * p, 0, 3]])
        b = Mat(f, 3, 2, [[1, p], [p - 1, 0], [-3 * p, 2]])
        assert (a @ b).rows == ref_mul(a, b) == [[p - 1, 0], [0, 6]]


def test_prime_product_multiplies_only_pairs_of_nonzero_factors():
    f, rng, products = PrimeField(997), random.Random(5), []

    class CountedInt(int):
        def __mul__(self, other):
            products.append(1)
            return int(self) * int(other)

        __rmul__ = __mul__

    def sparse(nr, nc):
        return Mat(f, nr, nc, [[CountedInt(rng.randrange(1, 997) if rng.random() < 0.2 else 0)
                                for _ in range(nc)] for _ in range(nr)])

    a, b = sparse(9, 12), sparse(12, 7)
    prod = a @ b
    pairs = sum(1 for r in a.rows for x, row in zip(r, b.rows) if x for y in row if y)
    assert len(products) == pairs and 0 < pairs < 9 * 12 * 7 // 4
    assert prod.rows == ref_mul(a, b)


@pytest.mark.parametrize("f", FIELDS)
def test_empty_shapes_never_reach_the_field_kernels(f, monkeypatch):
    # Result rows are lists, as ModuleMap.validate compares rows with !=.
    mats, rng = kernel_cases(f, 25)
    for a in mats:
        assert all(type(r) is list for r in (a @ rand_mat(f, a.ncols, 3, rng)).rows)

    def kernel(*args):
        raise AssertionError("an empty shape reached the field kernel")

    monkeypatch.setattr(type(f), "matmul", kernel)
    monkeypatch.setattr(type(f), "elim_rows", kernel)
    for (p, q, r) in ((0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)):
        prod = rand_mat(f, p, q, rng) @ rand_mat(f, q, r, rng)
        assert (prod.nrows, prod.ncols, prod.rows) == (p, r, [[f.zero] * r for _ in range(p)])
    for n in (0, 4):
        wide, tall = Mat.zero(f, 0, n), Mat(f, n, 0, [[] for _ in range(n)])
        assert rref(wide) == (wide, []) and rref(tall) == (tall, [])
        assert rank(wide) == rank(tall) == 0
        assert nullspace(wide) == (Mat.identity(f, n), list(range(n)))
        assert nullspace(tall) == (Mat.zero(f, 0, 0), [])
        values = [[f.of_int(j + 1) for j in range(n)]]
        assert list(kernel_vectors(wide, lambda free: values)) == values
        assert list(kernel_vectors(tall, lambda free: [free])) == [[]]
    with pytest.raises(AssertionError, match="field kernel"):
        rref(Mat.identity(f, 1))


@pytest.mark.parametrize("f", FIELDS)
def test_rref_nullspace_solve_match_scalar_loops(f):
    mats, _ = kernel_cases(f, 21)
    for m in mats:
        r, piv = rref(m)
        assert (r.rows, piv) == ref_rref(m)
        ns, _ = nullspace(m)
        assert (ns.rows, ns.ncols) == ref_nullspace(m)


def extension_system(f, nr, nc, rng, dependent):
    """An nr x nc system shaped like random_extension's: wide, under 1% dense,
    each row with a nonzero in a column of its own, so of full row rank
    generically; the last `dependent` rows are replaced by sums of two
    earlier rows, which drops the rank by that much."""
    m = sparse_mat(f, nr, nc, 0.003, rng)
    for r, c in zip(m.rows, rng.sample(range(nc), nr)):
        r[c] = f.of_int(rng.choice((-2, -1, 1, 2)))
    for i in range(nr - dependent, nr):
        r1, r2 = rng.sample(m.rows[:nr - dependent], 2)
        m.rows[i] = [f.add(x, y) for x, y in zip(r1, r2)]
    return m


@pytest.mark.parametrize("f", FIELDS)
def test_kernel_vector_is_the_nullspace_combination(f):
    mats, rng = kernel_cases(f, 24)
    mats += [Mat.identity(f, 5), rand_mat(f, 3, 0, rng), Mat.zero(f, 4, 6),
             int_mat(f, [[2, 1, 0, 3], [0, 0, 1, 4]])]
    # At bench size: full row rank, and rank-deficient by 12.
    for dependent in (0, 12):
        m = extension_system(f, 160, 260, rng, dependent)
        assert sum(map(bool, chain.from_iterable(m.rows))) < 0.01 * 160 * 260
        assert rank(m) == 160 - dependent
        mats.append(m)
    if isinstance(f, RationalField):
        draw = lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
    else:
        draw = lambda: f.random(rng, 1)[0]
    for m in mats:
        ns, free = nullspace(m)
        pivots = rref(m)[1]
        assert free == [j for j in range(m.ncols) if j not in pivots]
        assert len(free) == ns.ncols
        # One vector, and several from the one elimination.
        for count in (1, 3):
            coeffs = [[draw() for _ in free] for _ in range(count)]
            seen = []
            xs = list(kernel_vectors(m, lambda cols: seen.append(cols) or coeffs))
            assert seen == [free]  # the free columns, ascending, asked for once
            assert len(xs) == count
            for x, c in zip(xs, coeffs):
                assert x == [r[0] for r in (ns @ Mat(f, len(c), 1, [[y] for y in c])).rows]
                assert (m @ Mat(f, len(x), 1, [[y] for y in x])).is_zero()


@pytest.mark.parametrize("spec", ["prime:997", "rat"])
def test_back_substitution_reads_only_the_nonzero_tail_of_each_echelon_row(spec, monkeypatch):
    # Each pivot unknown is one dot product over the nonzero entries right
    # of its pivot in the forward elimination's rows, last pivot first, and
    # none where there are no such entries; at bench size those entries are
    # a small share of the tails.
    f, rng = field_from_spec(spec), random.Random(43)
    real_eliminate, real_dot, echelons, lengths = linalg._eliminate, f.dot, [], []
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda m, upward: echelons.append(real_eliminate(m, upward)) or echelons[-1])
    monkeypatch.setattr(f, "dot", lambda xs, ys: lengths.append((len(xs), len(ys))) or real_dot(xs, ys))
    for dependent in (0, 12):
        m = extension_system(f, 160, 260, rng, dependent)
        echelons.clear()
        lengths.clear()
        xs = list(kernel_vectors(m, lambda free: [[f.one] * len(free)] * 2))
        assert len(echelons) == 1 and len(xs) == 2
        rows, pivots = echelons[0]
        tails = [sum(map(bool, r[p + 1:])) for p, r in zip(pivots, rows)][::-1]
        assert 0 in tails and lengths == [(t, t) for t in tails if t] * 2
        assert sum(tails) < 0.5 * sum(m.ncols - 1 - p for p in pivots)


def test_random_draws_the_values_of_single_randrange_calls():
    # One call for k values, as k calls of randrange: the same values, the
    # same redraws past sample_size, and the rng left in the same state.
    for f in (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(997), default_field(),
              RationalField()):
        for k in (0, 1, 50):
            rng, twin = random.Random(k + 5), random.Random(k + 5)
            start = rng.getstate()
            assert f.random(rng, k) == [twin.randrange(f.sample_size) for _ in range(k)]
            assert rng.getstate() == twin.getstate()
            assert (rng.getstate() == start) == (k == 0)


@pytest.mark.parametrize("f", FIELDS)
def test_kernel_vectors_pull_one_list_of_free_values_per_vector(f):
    m = int_mat(f, [[2, 1, 0, 3], [0, 0, 1, 4]])
    pulled = []

    def fill(free):
        while True:
            pulled.append(1)
            yield [f.of_int(len(pulled))] * len(free)

    xs = kernel_vectors(m, fill)
    assert pulled == []  # nothing is eliminated or drawn before it is asked for
    first = next(xs)
    assert len(pulled) == 1
    assert first == [r[0] for r in (nullspace(m)[0] @ Mat(f, 2, 1, [[1], [1]])).rows]
    next(xs)
    assert len(pulled) == 2


def test_prime_kernels_reduce_unreduced_inputs():
    f = PrimeField(997)
    xs = [-1, 997, 1500, -2000, 0, 996]
    ys = [998, -997, 3, -1, 5, 996]
    dot = sum(x * y for x, y in zip(xs, ys)) % 997
    assert f.dot(xs, ys) == dot
    y_col = [[y] for y in ys]  # B's rows: B is the one column ys
    assert f.matmul([xs, ys], y_col) == [[dot], [f.dot(ys, ys)]]
    # Negation reduces an unreduced entry too, entry by entry and row by row.
    negated = [f.neg(x) for x in xs]
    assert negated == [-x % 997 for x in xs] and negated[:3] == [1, 0, 494]
    assert Mat(f, 1, len(xs), [xs]).neg().rows == f.neg_rows([xs]) == [negated]
    rows = f.elim_rows([xs, ys])
    assert rows == [[x % 997 for x in xs], [y % 997 for y in ys]]
    # The pivot row is scaled in place; its tail is the nonzero entries from
    # the pivot column on, as (column, value) pairs.
    scaled = [pow(996, -1, 997) * x % 997 for x in rows[0]]
    tail = f.elim_pivot(rows[0], 0)
    assert rows[0] == scaled and scaled[0] == 1
    assert tail == [(j, v) for j, v in enumerate(scaled) if v] and len(tail) == 4
    want = [(x - ys[0] * y) % 997 for x, y in zip(ys, scaled)]
    f.elim_reduce(rows[1], 0, tail)
    assert rows[1] == want and rows[1][0] == 0
    # A pivot further right leaves the columns before it alone.
    row = [5, 0, 3, 0, 7]
    assert f.elim_pivot(row, 2) == [(2, 1), (4, 7 * pow(3, -1, 997) % 997)]
    assert row[:2] == [5, 0] and row[3] == 0
    for out in (negated, *rows, f.matmul([xs], y_col)[0]):
        assert all(0 <= v < 997 for v in out)


def test_both_fields_expose_the_same_public_class_members():
    # A kernel deleted from one field only, or a constant one field names
    # twice, shows up here before any elimination reaches it.
    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}

    assert public(PrimeField) == public(RationalField)
    for cls in (PrimeField, RationalField):
        assert (cls.zero, cls.one) == (0, 1)  # plain class attributes


def test_rational_kernels_return_ints_where_integral():
    f = RationalField()
    xs, ys = [Fraction(1, 2), Fraction(-3)], [Fraction(2, 3), Fraction(5, 7)]
    assert f.dot(xs, ys) == Fraction(1, 3) - Fraction(15, 7)
    assert f.dot([], []) == 0 and type(f.dot([], [])) is int
    assert f.matmul([xs], [[y] for y in ys]) == [[f.dot(xs, ys)]]
    # Rows enter the elimination as integer vectors with gcd 1 ...
    rows = f.elim_rows([xs, ys, [Fraction(0), Fraction(-4, 6)]])
    assert rows == [[1, -6], [14, 15], [0, -1]]
    # ... are reduced fraction-free: [14, 15] - 14 [1, -6] = [0, 99] ~ [0, 1] ...
    f.elim_reduce(rows[1], 0, f.elim_pivot(rows[0], 0))
    assert rows[1] == [0, 1]
    # ... and leave divided by their pivots: ints where exact, else Fractions.
    out = f.elim_result([[0, -4, 6], [0, 0, 0]], [1])
    assert out == [[0, 1, Fraction(-3, 2)], [0, 0, 0]]
    # Every kernel output entry is an int or a non-integral Fraction, and
    # over mixed denominators every kernel gives some non-integral entries.
    entries = {"elim": [x for r in out for x in r]}
    mats, rng = kernel_cases(f, 23)
    for m in mats:
        b = mixed_denominator_mat(f, m.ncols, 3, rng)
        _, p = cokernel(m)
        for name, res in (("matmul", m @ b), ("rref", rref(m)[0]), ("nullspace", nullspace(m)[0]),
                          ("cokernel", p)):
            entries.setdefault(name, []).extend(x for r in res.rows for x in r)
        entries.setdefault("kernel_vectors", []).extend(
            next(kernel_vectors(m, lambda free: [[rng.randrange(-9, 10) for _ in free]])))
        col = b.transpose().rows[0]
        dots = [f.dot(r, col) for r in m.rows]
        assert dots == [sum((x * y for x, y in zip(r, col)), Fraction(0)) for r in m.rows]
        entries.setdefault("dot", []).extend(dots)
    for name, xs in entries.items():
        assert any(x.denominator > 1 for x in xs), name
        assert all(type(x) is int or type(x) is Fraction and x.denominator > 1
                   for x in xs), name


def test_stacks_match_pairwise_stacking():
    f = PrimeField(997)
    rng = random.Random(22)
    widths = [2, 0, 3, 0, 1]
    blocks = [rand_mat(f, 3, w, rng) for w in widths]
    folded = Mat(f, 3, 0, [[], [], []])
    for b in blocks:
        folded = hstack_all(f, [folded, b], 3)
    assert hstack_all(f, blocks, 3) == folded
    assert hstack_all(f, [], 3) == Mat(f, 3, 0, [[], [], []])
    assert hstack_all(f, [rand_mat(f, 0, w, rng) for w in widths], 0).ncols == 6
    tall = [b.transpose() for b in blocks]
    folded = Mat(f, 0, 3, [])
    for b in tall:
        folded = vstack_all(f, [folded, b], 3)
    assert vstack_all(f, tall, 3) == folded
    assert vstack_all(f, [], 2) == Mat(f, 0, 2, [])
    assert vstack_all(f, [rand_mat(f, 2, 0, rng)] * 2, 0) == Mat(f, 4, 0, [[]] * 4)
    with pytest.raises(ValueError):
        hstack_all(f, [rand_mat(f, 2, 1, rng)], 3)
    with pytest.raises(ValueError):
        vstack_all(f, [rand_mat(f, 2, 1, rng)], 3)


def test_block_diag_matches_pairwise_stacking():
    f = PrimeField(997)
    rng = random.Random(23)
    shapes = [(2, 3), (0, 2), (1, 0), (0, 0), (2, 2)]
    blocks = [rand_mat(f, r, c, rng) for r, c in shapes]
    folded = Mat(f, 0, 0, [])
    for b in blocks:
        top = hstack_all(f, [folded, Mat.zero(f, folded.nrows, b.ncols)], folded.nrows)
        bottom = hstack_all(f, [Mat.zero(f, b.nrows, folded.ncols), b], b.nrows)
        folded = vstack_all(f, [top, bottom], top.ncols)
    assert (folded.nrows, folded.ncols) == (5, 7)
    assert block_diag(f, blocks) == folded
    assert block_diag(f, []) == Mat(f, 0, 0, [])
    assert block_diag(f, [rand_mat(f, 0, 2, rng), rand_mat(f, 3, 0, rng)]) == Mat.zero(f, 3, 2)


def ref_block_system(f, shapes, equations):
    """The rows of a block system, one scalar entry at a time: coefficient
    L[r][j] on X_k[j][c] for a left term, R[j][c] on X_k[r][j] for a right."""
    offsets = [sum(kr * kc for kr, kc in shapes[:k]) for k in range(len(shapes))]
    total = sum(kr * kc for kr, kc in shapes)
    rows = []
    for (nr, nc), lefts, rights in equations:
        for r in range(nr):
            for c in range(nc):
                row = [f.zero] * total
                for L, k in lefts:
                    for j in range(shapes[k][0]):
                        at = offsets[k] + j * shapes[k][1] + c
                        row[at] = f.add(row[at], L.rows[r][j])
                for k, R in rights:
                    for j in range(shapes[k][1]):
                        at = offsets[k] + r * shapes[k][1] + j
                        row[at] = f.add(row[at], R.rows[j][c])
                rows.append(row)
    return rows, offsets


@pytest.mark.parametrize("f", FIELDS)
def test_block_system_matches_scalar_loops(f):
    rng = random.Random(31)
    draw = mixed_denominator_mat if isinstance(f, RationalField) else rand_mat
    shapes = [(2, 3), (0, 3), (3, 2), (2, 0), (3, 3), (0, 0)]
    # X_0 is a right term of the first equation and a left term of the
    # second; X_1 and X_3 have no rows or no columns, and two equations are
    # empty.
    equations = [
        ((2, 3), [(draw(f, 2, 3, rng), 4), (draw(f, 2, 0, rng), 1)],
         [(0, draw(f, 3, 3, rng)), (3, draw(f, 0, 3, rng))]),
        ((3, 3), [(draw(f, 3, 2, rng), 0)], [(2, draw(f, 2, 3, rng))]),
        ((0, 2), [(draw(f, 0, 3, rng), 2)], []),
        ((3, 0), [], [(4, draw(f, 3, 0, rng))]),
        ((2, 2), [(draw(f, 2, 3, rng), 2)], [(3, draw(f, 0, 2, rng))]),
    ]
    system, offsets = linalg.block_system(f, shapes, equations)
    rows, ref_offsets = ref_block_system(f, shapes, equations)
    assert offsets == ref_offsets == [0, 6, 6, 12, 12, 21]
    assert (system.nrows, system.ncols) == (len(rows), 21) == (19, 21)
    assert system.rows == rows
    # The reader returns the blocks that were written, and the system sends
    # them to the entries of the equations.
    blocks = [draw(f, kr, kc, rng) for kr, kc in shapes]
    vec = [x for b in blocks for r in b.rows for x in r]
    assert linalg.read_blocks(f, vec, shapes) == blocks
    sums = []
    for (nr, nc), lefts, rights in equations:
        terms = [L @ blocks[k] for L, k in lefts] + [blocks[k] @ R for k, R in rights]
        for r in range(nr):
            for c in range(nc):
                x = f.zero
                for t in terms:
                    x = f.add(x, t.rows[r][c])
                sums.append(x)
    assert (system @ Mat(f, len(vec), 1, [[y] for y in vec])).rows == [[x] for x in sums]


# sha256 of the JSON of one stratum sample over each field; the values were
# computed with one field call per entry, so any change to the draws or the
# arithmetic shows here.
PINNED_SAMPLES = {
    "prime": "373f967e8df908f256ddc638e30d8b18db43541ab883b5f78a9eb43972f5589b",
    "rat": "7dc575155abb57c239edae2a8f9a7c32df2bc3337bb9bb755f4e687d2057dfd7",
}


@pytest.mark.parametrize("spec", sorted(PINNED_SAMPLES))
def test_build_filtered_sample_is_pinned(spec):
    x = build_filtered(a_n(3), (1, 2, 1, 3, 2, 1), (2, 1, 2, 1, 2, 1),
                       random.Random(11), field=field_from_spec(spec))
    digest = hashlib.sha256(json.dumps(x.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_SAMPLES[spec]


# sha256 of the canonical JSON of the five sample-large data on one A3
# longest word, each sample with the datum read back off it, drawn in turn
# from one rng at seed 7. The values were computed before the sampling path
# drew in batches, back-substituted over nonzero tails and read cokernels
# off the RREF, so a changed draw, assembly or kernel value shows here even
# where the read-back datum would still be right.
LARGE_DATA = ((5, 6, 5, 7, 6, 5), (8, 7, 8, 6, 7, 8), (6, 6, 6, 6, 6, 6),
              (7, 5, 8, 5, 7, 6), (5, 8, 6, 8, 5, 7))
PINNED_LARGE_SAMPLES = {
    "prime": "4a2f1ba31703c8fc882799a18f8474987886fbd933dd47b6f7e2b62c960b185b",
    "rat": "b9ad075395ff545442829d838d633872f08ef7aab189b1f540bc665b36104dcf",
}


@pytest.mark.parametrize("spec", sorted(PINNED_LARGE_SAMPLES))
def test_large_samples_and_their_data_are_pinned(spec):
    g, w, rng = a_n(3), (1, 2, 1, 3, 2, 1), random.Random(7)
    out = []
    for a in LARGE_DATA:
        x = build_filtered(g, w, a, rng, field=field_from_spec(spec))
        out.append([x.to_dict(), extract_datum(g, w, x)])
    assert [datum for _, datum in out] == list(LARGE_DATA)
    canonical = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_LARGE_SAMPLES[spec]
