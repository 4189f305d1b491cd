import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcrystal.fields import PrimeField, RationalField, field_from_spec, field_size
from nilcrystal.linalg import (
    Mat,
    col_basis,
    extend_to_basis,
    nullspace,
    rank,
    rref,
    solve,
)

FIELDS = [PrimeField(997), RationalField()]


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
        ns = nullspace(m)
        assert rank(m) + ns.ncols == nc
        prod = m @ ns
        assert all(x == f.zero for row in prod.rows for x in row)


@pytest.mark.parametrize("f", FIELDS)
def test_solve_consistent(f):
    rng = random.Random(2)
    for _ in range(20):
        a = rand_mat(f, 4, rng.randrange(1, 4), rng)
        x = rand_mat(f, a.ncols, 2, rng)
        b = a @ x
        sol = solve(a, b)
        assert sol is not None
        assert (a @ sol).rows == b.rows


@pytest.mark.parametrize("f", FIELDS)
def test_solve_inconsistent_returns_none(f):
    a = Mat(f, 2, 1, [[f.one], [f.zero]])
    b = Mat(f, 2, 1, [[f.zero], [f.one]])
    assert solve(a, b) is None


@pytest.mark.parametrize("f", FIELDS)
def test_extend_to_basis(f):
    rng = random.Random(3)
    for _ in range(10):
        m = rand_mat(f, 4, 2, rng)
        b = col_basis(m)
        e, t_inv = extend_to_basis(b)
        t = b.hstack(e)
        assert t.ncols == 4 and rank(t) == 4
        prod = t_inv @ t
        assert prod.rows == Mat.identity(f, 4).rows


def test_zero_dim_matrices():
    f = RationalField()
    z = Mat.zero(f, 0, 3)
    assert rank(z) == 0
    assert nullspace(z).ncols == 3
    z2 = Mat.zero(f, 3, 0)
    assert nullspace(z2).ncols == 0
    assert (z @ nullspace(z)).nrows == 0


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
