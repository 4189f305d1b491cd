"""Exact computation fields: a large prime field and the rationals.

Elements are plain Python objects, so matrices are nested lists and all
arithmetic stays exact: ints reduced mod p, or rationals, each an int when
integral and else a Fraction (Fraction(3) == 3, with equal hashes).
Besides the constants `zero` and `one` and the scalar operations, each
field supplies `random(rng, k)`: k draws in one call, the values of k calls
of rng.randrange(sample_size). It supplies the whole-row kernels `matmul`,
`dot` and `neg_rows` (which reduces over F_p), and the steps of the shared
elimination in `linalg` (`elim_rows`, `elim_pivot`, `elim_reduce`,
`elim_result`) on rows of ints. `matmul` takes the rows of A and of B.
Over F_p a row of A sums the nonzero entries of B's rows at its nonzero
entries, and a pivot row passes on only its nonzero entries, so a reduce
step touches only their columns. Over the rationals, a product or a dot
product puts each vector over its own common denominator and divides each
sum by theirs; the elimination clears each row to integers, reduces
fraction-free, and divides each pivot row by its pivot once, at the end.
"""

import functools
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import mul

DEFAULT_PRIME = 2**61 - 1

# The first 13 primes: the first 12 (2..37) already accept the composite
# 318,665,857,834,031,151,167,461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@functools.lru_cache(maxsize=64)
def is_probable_prime(n):
    """Deterministic Miller-Rabin test to the prime bases 2..41.

    Exact for n < 3.3e24. Above that it is only a strong-probable-prime
    test: 3,317,044,064,679,887,385,961,981 = 1,287,836,182,261 *
    2,575,672,364,521 passes every base, so a larger composite may too.
    Cached: fields are built often, and the test costs far more than the
    rest of a field's set-up.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random(field, rng, k):
    """k values of rng.randrange(q), q the field's sample_size, drawn as
    CPython draws each: getrandbits(q.bit_length()), redrawn while >= q. The
    first k values below q are kept, so a batch draws only the shortfall."""
    q, out = field.sample_size, []
    while len(out) < k:
        out += filter(q.__gt__, map(rng.getrandbits, repeat(q.bit_length(), k - len(out))))
    return out


class PrimeField:
    """F_p with elements stored as ints in [0, p)."""

    zero, one = 0, 1

    def __init__(self, p=DEFAULT_PRIME):
        if not isinstance(p, int) or not is_probable_prime(p):
            raise ValueError(f"p must be a prime, got {p!r}")
        self.p = p

    @property
    def sample_size(self):
        """Size of the set `random` draws from."""
        return self.p

    def of_int(self, k):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def neg_rows(self, rows):
        p = self.p
        return [[-x % p for x in r] for r in rows]

    def matmul(self, a_rows, b_rows):
        """Rows of A @ B from the rows of A and B, each entry reduced once."""
        p, width = self.p, len(b_rows[0])
        b_terms = [list(compress(enumerate(r), r)) for r in b_rows]
        out = []
        for r in a_rows:
            acc = [0] * width
            for x, terms in compress(zip(r, b_terms), r):
                for j, y in terms:
                    acc[j] += x * y
            out.append([v % p for v in acc])
        return out

    # -- elimination steps, on rows of reduced residues -------------------

    def elim_rows(self, rows):
        p = self.p
        return [[x % p for x in r] for r in rows]

    def elim_pivot(self, row, col):
        """Scale row so its pivot at col is 1, in place; return the nonzero
        entries of its tail from col on, as (column, value) pairs."""
        p = self.p
        inv = pow(row[col], -1, p)
        tail = []
        for j in compress(range(col, len(row)), row[col:]):
            row[j] = x = inv * row[j] % p
            tail.append((j, x))
        return tail

    def elim_reduce(self, row, col, tail):
        """Clear row[col] with the pivot tail, in place; only its columns move."""
        p = self.p
        c = row[col]
        for j, y in tail:
            row[j] = (row[j] - c * y) % p

    def elim_result(self, rows, pivots):
        return rows

    random = _random

    def to_str(self, a):
        return str(a)

    def from_str(self, s):
        if not isinstance(s, str):  # int(1.9) would truncate, int(True) is 1
            raise TypeError(f"a field entry must be a string, got {s!r}")
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Exact rationals: an `int` when integral, else a `Fraction`."""

    zero, one = 0, 1
    # `random` draws from the integers in [0, sample_size); only genericity
    # matters.
    sample_size = 2**31

    def of_int(self, k):
        return k

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return _ratio(a.denominator, a.numerator)  # ZeroDivisionError at 0

    def is_zero(self, a):
        return a == 0

    def dot(self, xs, ys):
        (nx, dx), (ny, dy) = _over_lcm(xs), _over_lcm(ys)
        return _ratio(sum(map(mul, nx, ny)), dx * dy)

    def neg_rows(self, rows):
        return [[-x for x in r] for r in rows]

    def matmul(self, a_rows, b_rows):
        """Rows of A @ B, given the rows of A and of B."""
        cols = [_over_lcm(c) for c in zip(*b_rows)]
        out = []
        for r in a_rows:
            nr, dr = _over_lcm(r)
            out.append([sum(map(mul, nr, nc)) if (d := dr * dc) == 1
                        else _ratio(sum(map(mul, nr, nc)), d) for nc, dc in cols])
        return out

    # -- elimination steps, on rows of ints with gcd 1 --------------------
    # Scaling a row by a nonzero rational does not change the RREF.

    def elim_rows(self, rows):
        out = []
        for r in rows:
            nums, _ = _over_lcm(r)
            g = gcd(*nums)
            out.append([x // g for x in nums] if g > 1 else nums)
        return out

    def elim_pivot(self, row, col):
        return row[col:]

    def elim_reduce(self, row, col, tail):
        """row <- (p/g) row - (a/g) pivot row, in place, for the pivot p,
        a = row[col] and g = gcd(p, a); then divide out the row's gcd."""
        p, a = tail[0], row[col]
        g = gcd(p, a)
        p, a = p // g, a // g
        if p != 1:
            row[:col] = [p * x for x in row[:col]]
        row[col:] = [p * x - a * y for x, y in zip(row[col:], tail)]
        g = gcd(*row)
        if g > 1:
            row[:] = [x // g for x in row]

    def elim_result(self, rows, pivots):
        """Divide each pivot row by its pivot; the rows below are zero."""
        out = [r if (p := r[col]) == 1 else [_ratio(x, p) for x in r]
               for r, col in zip(rows, pivots)]
        return out + rows[len(pivots):]

    random = _random

    def to_str(self, a):
        return f"{a.numerator}/{a.denominator}"

    def from_str(self, s):
        if "/" in s:
            num, den = s.split("/")
            return _ratio(int(num), int(den))
        return int(s)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def _ratio(n, d):
    """The rational n/d: an int when d divides n, else a Fraction."""
    return Fraction(n, d) if n % d else n // d


def _over_lcm(xs):
    """Rationals xs as (a new list of integer numerators, d) over their lcm d."""
    if Fraction not in map(type, xs):  # all ints
        return list(xs), 1
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def default_field():
    return PrimeField()


def field_from_spec(spec):
    """Parse a field choice string: 'rat' or 'prime:P'."""
    if spec == "rat":
        return RationalField()
    if spec == "prime":
        return PrimeField()
    if spec.startswith("prime:"):
        return PrimeField(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {spec!r}")


def field_size(field):
    """Size of the field, or None for an infinite field."""
    return field.p if isinstance(field, PrimeField) else None
