"""Small exact linear algebra kernel over a computation field.

Matrices are immutable-by-convention lists of lists of field elements.
Zero-row and zero-column matrices are first-class citizens: most of the
module theory downstream lives at the boundary cases, so a product with a
zero dimension, or an elimination of an empty matrix, returns at once and
never reaches the field. The arithmetic loops belong to the field
(`matmul`, on rows, and the elimination steps); this
module holds the one Gaussian elimination that every rank, kernel and
cokernel shares. Its forward pass clears the rows below each pivot, and
the RREF also clears the rows above. `nullspace` reads a kernel basis off
the RREF, and `cokernel` reads a cokernel off the RREF of b^T (a
k x n matrix, where [b | I] would be n x (n + k)); each also returns
where its frame is the identity (the basis's free rows, the projection's
unit columns), so a map into a kernel or out of a cokernel is read off
those rows or columns (`rows_at`, `cols`), not solved for; the cokernel
of a kernel basis is read off the basis itself (`frame_projection`).
`kernel_vectors` runs the forward pass alone, once, and then lazily fixes
the pivot unknowns of each kernel vector its caller supplies free values
for by back substitution: both random draws, of an extension and of a
morphism in a search, go through it. `block_diag` is the one
block-diagonal builder: direct sums and a morphism's action on an
incoming assembly use it. `block_system` is the one writer of a linear
system on block unknowns, sum L @ X_k + sum X_k @ R = 0: the morphism
spaces and the random extensions list their terms, and `read_blocks`
reads a solution back into blocks. Over the rationals, products and
eliminations run on integers over common denominators, and an output
entry is a Fraction only where it is not an integer. A `Mat` trusts its
shape: `PModule.from_dict` counts the entries of rows from outside, and
the stacks raise `ValueError` on a mismatch.
"""

from itertools import chain, compress


class Mat:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return Mat(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Mat(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basic ops -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {self.rows})"

    def is_zero(self):
        z = self.field.is_zero
        return all(z(x) for row in self.rows for x in row)

    def transpose(self):
        if self.nrows == 0:
            return Mat(self.field, self.ncols, 0, [[] for _ in range(self.ncols)])
        return Mat(self.field, self.ncols, self.nrows, [list(c) for c in zip(*self.rows)])

    def neg(self):
        f = self.field
        return Mat(f, self.nrows, self.ncols, f.neg_rows(self.rows))

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        f = self.field
        if not (self.nrows and self.ncols and other.ncols):  # no entry has a term
            return Mat.zero(f, self.nrows, other.ncols)
        return Mat(f, self.nrows, other.ncols, f.matmul(self.rows, other.rows))

    def __matmul__(self, other):
        return self.mul(other)

    def cols(self, indices):
        return Mat(
            self.field,
            self.nrows,
            len(indices),
            [[r[j] for j in indices] for r in self.rows],
        )

    def rows_at(self, indices):
        return Mat(self.field, len(indices), self.ncols, [list(self.rows[i]) for i in indices])


def hstack_all(field, mats, nrows):
    if any(m.nrows != nrows for m in mats):
        raise ValueError("row count mismatch in hstack")
    rows = [list(chain.from_iterable(m.rows[i] for m in mats)) for i in range(nrows)]
    return Mat(field, nrows, sum(m.ncols for m in mats), rows)


def vstack_all(field, mats, ncols):
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column count mismatch in vstack")
    rows = [list(r) for m in mats for r in m.rows]
    return Mat(field, len(rows), ncols, rows)


def block_diag(field, mats):
    """The block-diagonal matrix with the blocks mats, top left first."""
    z = field.zero
    width = sum(m.ncols for m in mats)
    rows, left = [], 0
    for m in mats:
        right = left + m.ncols
        for r in m.rows:
            row = [z] * width
            row[left:right] = r
            rows.append(row)
        left = right
    return Mat(field, len(rows), width, rows)


def block_system(field, shapes, equations):
    """The linear system sum L @ X_k + sum X_k @ R = 0 on block unknowns.

    The unknowns are the entries of the blocks X_k, of shapes[k] = (rows,
    columns), block after block, each block row-major. An equation is
    ((nr, nc), lefts, rights): a left term (L, k) stands for L @ X_k and a
    right term (k, R) for X_k @ R, each nr x nc. A block appears at most
    once in an equation, as a later term overwrites it. Each entry of an
    equation, row-major, is one row of the system. Entry (r, c) of L @ X_k
    puts row r of L down column c of X_k, with stride nc, the width of X_k;
    entry (r, c) of X_k @ R puts column c of R along row r of X_k. Returns
    (system, offsets), where offsets[k] is the unknown of X_k[0][0];
    `read_blocks` reads a solution vector back into blocks.
    """
    offsets, total = [], 0
    for kr, kc in shapes:
        offsets.append(total)
        total += kr * kc
    z = field.zero
    rows = []
    for (nr, nc), lefts, rights in equations:
        ls = [(offsets[k], offsets[k] + L.ncols * nc, L.rows) for L, k in lefts]
        rs = [(offsets[k], R.nrows, R.transpose().rows) for k, R in rights]
        for r in range(nr):
            for c in range(nc):
                row = [z] * total
                for off, end, l_rows in ls:
                    row[off + c:end:nc] = l_rows[r]
                for off, kc, r_cols in rs:
                    row[off + r * kc:off + (r + 1) * kc] = r_cols[c]
                rows.append(row)
    return Mat(field, len(rows), total, rows), offsets


def read_blocks(field, vec, shapes):
    """The blocks of the given shapes that vec holds one after another, each
    row-major: the unknowns of `block_system`, read back."""
    out, off = [], 0
    for nr, nc in shapes:
        out.append(Mat(field, nr, nc, [vec[off + r * nc:off + (r + 1) * nc] for r in range(nr)]))
        off += nr * nc
    return out


def _eliminate(m, upward):
    """One Gaussian elimination of m: (rows, pivot_columns).

    It runs on the field's working rows of ints, so a zero test is a truth
    test. The field owns the steps: `elim_pivot` prepares the pivot row,
    `elim_reduce` clears one entry of another row with it, and
    `elim_result` turns the rows back into field elements, each pivot row
    scaled to pivot 1. The forward pass clears the rows below each pivot;
    with `upward` it clears the rows above too, which gives the RREF.
    """
    f = m.field
    if not (m.nrows and m.ncols):
        return [[] for _ in range(m.nrows)], []
    rows = f.elim_rows(m.rows)
    pivot, reduce = f.elim_pivot, f.elim_reduce
    pivots = []
    prow = 0
    for col in range(m.ncols):
        if prow >= m.nrows:
            break
        for sel in range(prow, m.nrows):
            if rows[sel][col]:
                break
        else:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        top = rows[prow]
        tail = pivot(top, col)
        for r in rows if upward else rows[prow + 1:]:
            if r[col] and r is not top:
                reduce(r, col, tail)
        pivots.append(col)
        prow += 1
    return f.elim_result(rows, pivots), pivots


def rref(m):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    rows, pivots = _eliminate(m, upward=True)
    return Mat(m.field, m.nrows, m.ncols, rows), pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m):
    """(K, free): K's columns are a basis of the right kernel of m, and its
    rows at free, m's non-pivot columns in ascending order, are the identity."""
    f = m.field
    R, pivots = rref(m)
    pivot_rows = dict(zip(pivots, R.rows))
    free = [j for j in range(m.ncols) if j not in pivot_rows]
    z, o, neg = f.zero, f.one, f.neg
    rows = [
        [neg(pivot_rows[i][fc]) for fc in free] if i in pivot_rows
        else [o if fc == i else z for fc in free]
        for i in range(m.ncols)
    ]
    return Mat(f, m.ncols, len(free), rows), free


def kernel_vectors(m, fill):
    """Vectors of the right kernel of m from one forward elimination.

    fill(free) gets the free (non-pivot) columns in ascending order and
    gives the free values, one list per wanted vector, each aligned with
    free. A vector is yielded as its list comes, so a consumer that stops
    early stops the draws. Each is nullspace(m) @ c for its values c,
    built without the basis or the RREF: back substitution, last pivot
    first, sets x[p] = -sum e_j x[j] over the nonzero entries e_j of the
    echelon row of p right of p, listed once per elimination (x[p] stays 0
    where there are none). A system of k copies of m on disjoint unknowns
    has m's pivots in every copy, so one call with k lists solves it; fill
    draws the values in the order that system would, so the draws do not
    depend on how it is solved.
    """
    f = m.field
    rows, pivots = _eliminate(m, upward=False)
    is_pivot = set(pivots)
    free = [j for j in range(m.ncols) if j not in is_pivot]
    last_first = [(p, list(compress(range(p + 1, m.ncols), t)), list(filter(None, t)))
                  for p, r in zip(pivots, rows) if any(t := r[p + 1:])][::-1]
    for values in fill(free):
        given = iter(values)
        x = [f.zero if j in is_pivot else next(given) for j in range(m.ncols)]
        for p, cols, tail in last_first:
            x[p] = f.neg(f.dot(tail, [x[j] for j in cols]))
        yield x


def col_basis(m):
    """Pivot columns of m: a full-column-rank matrix with the same image."""
    _, pivots = rref(m)
    return m.cols(pivots)


def cokernel(b):
    """The cokernel of an (n x k) matrix b from one elimination of b^T.

    Returns (units, P): the unit vectors of F^n at units complete image(b)
    to a basis, taken greedily from the first index, and P is the projection
    F^n -> F^n / image(b) in their coordinates: P @ b = 0, P.cols(units) = I.
    Both are read off t, b^T with its columns reversed (k x n, rank r <= k),
    not off [b | I] (n x (n + k), rank n):
      j is a unit <=> e_j is not in image(b) + span(e_0 .. e_{j-1})
      <=> some y with y @ b = 0 has y_0 .. y_{j-1} = 0 and y_j != 0
      <=> row j of b lies in the span of rows j+1 .. n-1
      <=> column n-1-j of t is a free column of its RREF.
    Given the units, P is unique: its rows lie in the left kernel of b and
    are the identity at the units, and a functional that kills image(b) and
    every unit vector is 0. So the row of P at a unit u is the kernel
    vector of t that is 1 at its free column n-1-u, read in reverse: 1 at
    u, minus that column of the RREF's pivot rows at n-1-(their pivots).
    """
    f, n = b.field, b.nrows
    t = Mat(f, n, b.ncols, b.rows[::-1]).transpose()
    R, pivots = rref(t)
    at = [n - 1 - c for c in pivots]
    units = sorted(set(range(n)).difference(at))
    negated = f.neg_rows(R.rows[:len(pivots)])
    rows = [[f.zero] * n for _ in units]
    for row, u in zip(rows, units):
        row[u] = f.one
        for j, r in zip(at, negated):
            row[j] = r[n - 1 - u]
    return units, Mat(f, len(units), n, rows)


def frame_projection(basis, free):
    """cokernel(basis)[1], read with no elimination off a basis that is the
    identity at its free rows, as `nullspace` returns it: the units are the
    other rows, and the row at unit u is 1 at u and -basis[u][c] at free[c],
    the RREF row with pivot u."""
    f, n = basis.field, basis.nrows
    units = sorted(set(range(n)).difference(free))
    rows = [[f.zero] * n for _ in units]
    for row, u, negated in zip(rows, units, f.neg_rows([basis.rows[u] for u in units])):
        row[u] = f.one
        for c, x in zip(free, negated):
            row[c] = x
    return Mat(f, len(units), n, rows)


def is_invertible(m):
    return m.nrows == m.ncols and rank(m) == m.nrows
