"""Exact linear algebra over GF(2^n).

Vectors are tuples of field elements (ints); matrices are tuples of row
tuples.  Matrices act on column vectors: (M@v)[i] = sum_j M[i][j]*v[j].

There is one Gaussian elimination, the row step `_eliminate` behind
`ReducedSystem.with_row`: reduce a row by the pivot rows, scale it to
lead 1 and clear its pivot column from the others.  `rref` and `rank`
fold the rows through it and stop once every column holds a pivot;
`solve_affine` and `nullspace` read `ReducedSystem.solution` off the
augmented rows, `mat_inv` reads the sides of [M | I], and
`independent_subset` keeps each row that grows the system.  Every row
operation is v + c*r, which XORs directly when c = 1 and multiplies
only the nonzero entries of r otherwise, and a lead already 1 is not
rescaled.  None of this changes a result: the reduced row echelon form
of a row space is unique.  The functions take validated field elements
and do not check them.
"""

from itertools import product
from operator import xor


def zeros(dim):
    return tuple(0 for _ in range(dim))


def identity(dim):
    return tuple(tuple(1 if i == j else 0 for j in range(dim))
                 for i in range(dim))


def vec_add(u, v):
    return tuple(map(xor, u, v))


def vec_scale(field, c, v):
    if c == 1:
        return tuple(v)
    mul = field.mul
    return tuple([mul(c, a) if a else 0 for a in v])


def _axpy(field, v, c, r):
    """v + c*r for a nonzero scalar c."""
    if c == 1:
        return tuple(map(xor, v, r))
    mul = field.mul
    return tuple([a ^ mul(c, b) if b else a for a, b in zip(v, r)])


def combine(field, coeffs, vectors):
    """sum c_i v_i: the zero vector of the vectors' length when every c_i
    is zero, and the empty tuple when there are no vectors."""
    acc = zeros(len(vectors[0])) if vectors else ()
    for c, v in zip(coeffs, vectors):
        if c:
            acc = _axpy(field, acc, c, v)
    return acc


def dot(field, u, v):
    mul = field.mul
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc ^= b if a == 1 else a if b == 1 else mul(a, b)
    return acc


def mat_vec(field, m, v):
    return tuple(dot(field, row, v) for row in m)


def mat_mul(field, a, b):
    bt = transpose(b)
    return tuple(tuple(dot(field, row, col) for col in bt) for row in a)


def mat_add(a, b):
    return tuple(tuple(x ^ y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def transpose(m):
    return tuple(tuple(r) for r in zip(*m))


def mat_col(m, j):
    return tuple(row[j] for row in m)


def from_columns(cols):
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def _eliminate(field, d, rows, row):
    """The one row step: add row to the pivot rows `rows`.

    rows holds (pivot, row) pairs, each row 1 at its pivot, 0 at the
    others' pivots and before its own, and is never modified.  The row
    is reduced by them; if it is then nonzero among its first d entries,
    returns (grown, None): the rows cleared at its lead, then the row
    scaled to lead 1.  Otherwise returns (rows, reduced row), so d = 0
    only reduces.
    """
    for p, r in rows:
        c = row[p]
        if c:
            row = _axpy(field, row, c, r)
    for lead in range(d):
        x = row[lead]
        if x:
            break
    else:
        return rows, row
    if x != 1:
        row = vec_scale(field, field.inv(x), row)
    grown = [(p, _axpy(field, r, r[lead], row)) if r[lead] else (p, r)
             for p, r in rows]
    grown.append((lead, row))
    return grown, None


def _reduced(field, d, rows):
    """(pivot rows, nonzero rests) of rows of d coefficients and their
    sides; without sides the rows after full rank are not read."""
    pivots, zero = (), []
    for row in rows:
        row = tuple(row)
        if len(pivots) == len(row):
            break  # d pivots and no sides: full rank
        pivots, rest = _eliminate(field, d, pivots, row)
        if rest is not None and any(rest):
            zero.append(rest)
    return pivots, tuple(zero)


class ReducedSystem:
    """The rows of A@x = b_k, for a family of right-hand sides b_k, in
    reduced row echelon form, grown one row at a time.

    Each row is its d coefficients followed by its right-hand side at
    every k, and row operations act on whole rows, so every b_k is
    reduced along with A.  `with_row` returns a new system and leaves
    this one as it was: a backtracking search undoes a row by going
    back to the system it had, and a row that changes nothing returns
    this system itself.  Every elimination in this module is the row
    step of `with_row`.
    """

    def __init__(self, field, d, rows=(), zero=()):
        self.field = field
        self.d = d
        self.rows = rows  # (pivot, row): 1 at its pivot, 0 at the others'
        self.zero = zero  # rows whose d coefficients all vanish

    def reduce(self, row):
        """row reduced by the pivot rows: zero in its d coefficients
        exactly when they lie in the span of the rows'."""
        return _eliminate(self.field, 0, self.rows, tuple(row))[1]

    def with_row(self, row):
        """This system with one more row of d coefficients and sides."""
        rows, rest = _eliminate(self.field, self.d, self.rows, tuple(row))
        if rest is None:
            return ReducedSystem(self.field, self.d, rows, self.zero)
        if not any(rest):
            return self
        return ReducedSystem(self.field, self.d, rows, self.zero + (rest,))

    def solution(self, k):
        """(particular, nullspace_basis) of A@x = b_k, or None.

        A row with vanishing coefficients makes b_k inconsistent where
        its side is nonzero.  The particular solution reads the pivot
        rows' sides; the null basis has one vector per free column j,
        1 at j and the pivot rows' entries in column j at their pivots.
        """
        d = self.d
        if any(row[d + k] for row in self.zero):
            return None
        particular = [0] * d
        for p, row in self.rows:
            particular[p] = row[d + k]
        pivots = {p for p, _ in self.rows}
        basis = []
        for j in range(d):
            if j not in pivots:
                v = [0] * d
                v[j] = 1
                for p, row in self.rows:
                    v[p] = row[j]
                basis.append(tuple(v))
        return tuple(particular), basis


def rref(field, rows):
    """Reduced row echelon form of a sequence of equal-length rows.

    Returns (rows, pivot_columns) with the rows sorted by pivot.
    """
    ncols = len(rows[0]) if rows else 0
    red = sorted(_reduced(field, ncols, rows)[0])  # pivots are distinct
    return [r for _, r in red], [p for p, _ in red]


def rank(field, rows):
    return len(rref(field, rows)[0])


def solve_affine(field, a_rows, b):
    """All solutions of A@x = b as (particular, nullspace_basis), or None.

    a_rows is a list of m row vectors of length d; b has length m.
    """
    d = len(a_rows[0]) if a_rows else 0
    aug = [tuple(r) + (x,) for r, x in zip(a_rows, b)]
    return ReducedSystem(field, d, *_reduced(field, d, aug)).solution(0)


def affine_points(field, particular, basis):
    """Iterate the affine subspace particular + span(basis)."""
    if not basis:
        yield particular
        return
    for coeffs in product(field.elements(), repeat=len(basis)):
        v = particular
        for c, b in zip(coeffs, basis):
            if c:
                v = _axpy(field, v, c, b)
        yield v


def nullspace(field, a_rows):
    """Basis of {x : A@x = 0}."""
    solved = solve_affine(field, a_rows, [0] * len(a_rows))
    if solved is None:
        raise AssertionError("homogeneous system cannot be inconsistent")
    return solved[1]


def mat_inv(field, m):
    """Inverse matrix, or None when singular: the sides of [M | I]
    reduced to [I | M^-1]."""
    d = len(m)
    aug = [tuple(r) + e for r, e in zip(m, identity(d))]
    rows = _reduced(field, d, aug)[0]
    if len(rows) < d:
        return None
    return tuple(r[d:] for _, r in sorted(rows))


def independent_subset(field, vectors):
    """Subsequence of `vectors` forming a basis of their span: each
    vector that grows the span of those before it."""
    rows, out = (), []
    for v in vectors:
        v = tuple(v)
        if len(rows) == len(v):
            break  # full rank: the later vectors lie in the span
        rows, rest = _eliminate(field, len(v), rows, v)
        if rest is None:
            out.append(v)
    return out


def extend_to_basis(field, vectors, dim):
    """Complete an independent list to a full basis with standard vectors."""
    return independent_subset(field, list(vectors) + list(identity(dim)))

