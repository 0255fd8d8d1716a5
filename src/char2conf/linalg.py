"""Exact linear algebra over GF(2^n).

Vectors are tuples of field elements (ints); matrices are tuples of row
tuples.  Matrices act on column vectors: (M@v)[i] = sum_j M[i][j]*v[j].

Every elimination here reduces through one row operation, v + c*r,
which XORs directly when c = 1 and multiplies only the nonzero entries
of r otherwise.  Pivot rows are scaled by the inverse of their lead only
when the lead is not already 1, and `rref` stops reading rows once every
column holds a pivot.  None of this changes a result: the reduced row
echelon form of a row space is unique.  The functions take validated
field elements and do not check them.
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


def _normalized(field, row):
    """(lead column, row scaled to lead 1), or None for a zero row."""
    for lead, x in enumerate(row):
        if x:
            return lead, row if x == 1 else vec_scale(field, field.inv(x), row)
    return None


def rref(field, rows):
    """Reduced row echelon form of a sequence of equal-length rows.

    Returns (rows, pivot_columns) with the rows sorted by pivot.
    """
    out = []
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(out) == ncols:
            break  # full rank: every further row lies in the span
        row = tuple(row)
        for p, r in zip(pivots, out):
            if row[p]:
                row = _axpy(field, row, row[p], r)
        found = _normalized(field, row)
        if found is None:
            continue
        lead, row = found
        out = [_axpy(field, r, r[lead], row) if r[lead] else r for r in out]
        out.append(row)
        pivots.append(lead)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def rank(field, rows):
    return len(rref(field, rows)[0])


def solve_affine(field, a_rows, b):
    """All solutions of A@x = b as (particular, nullspace_basis), or None.

    a_rows is a list of m row vectors of length d; b has length m.
    """
    d = len(a_rows[0]) if a_rows else 0
    aug = [tuple(a_rows[i]) + (b[i],) for i in range(len(a_rows))]
    red, pivots = rref(field, aug)
    if d in pivots:
        return None  # inconsistent: pivot in the augmented column
    particular = [0] * d
    for row, p in zip(red, pivots):
        particular[p] = row[d]
    free = [j for j in range(d) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * d
        v[j] = 1
        for row, p in zip(red, pivots):
            v[p] = row[j]
        basis.append(tuple(v))
    return tuple(particular), basis


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
    d = len(a_rows[0]) if a_rows else 0
    solved = solve_affine(field, a_rows, [0] * len(a_rows))
    if solved is None:
        raise AssertionError("homogeneous system cannot be inconsistent")
    return solved[1] if d else []


def mat_inv(field, m):
    """Inverse matrix, or None when singular."""
    d = len(m)
    aug = [tuple(m[i]) + tuple(1 if j == i else 0 for j in range(d))
           for i in range(d)]
    red, pivots = rref(field, aug)
    if pivots != list(range(d)):
        return None
    return tuple(tuple(row[d:]) for row in red)


class Echelon:
    """Incremental independence tracking for backtracking searches."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot, normalized vector)

    def reduce(self, v):
        for p, r in self.rows:
            if v[p]:
                v = _axpy(self.field, v, v[p], r)
        return v

    def add(self, v):
        """Insert v; returns False when v was dependent."""
        found = _normalized(self.field, self.reduce(tuple(v)))
        if found is None:
            return False
        self.rows.append(found)
        return True

    def pop(self):
        """Undo the last successful `add`."""
        self.rows.pop()


class ReducedSystem:
    """The rows of A@x = b_k, for a family of right-hand sides b_k, in
    reduced row echelon form, grown one row at a time.

    Each row is its d coefficients followed by its right-hand side at
    every k, and row operations act on whole rows, so every b_k is
    reduced along with A.  `with_row` returns a new system and leaves
    this one as it was: a backtracking search undoes a row by going
    back to the system it had.  The reduced rows of a row space are
    unique, so `solution(k)` gives exactly what `solve_affine` gives for
    the rows so far and b_k.
    """

    def __init__(self, field, d, rows=(), zero=()):
        self.field = field
        self.d = d
        self.rows = rows  # (pivot, row): 1 at its pivot, 0 at the others'
        self.zero = zero  # rows whose d coefficients all vanish

    def with_row(self, row):
        """This system with one more row of d coefficients and sides."""
        field, d = self.field, self.d
        row = tuple(row)
        for p, r in self.rows:
            if row[p]:
                row = _axpy(field, row, row[p], r)
        lead = next((j for j in range(d) if row[j]), None)
        if lead is None:
            if not any(row):
                return self
            return ReducedSystem(field, d, self.rows, self.zero + (row,))
        if row[lead] != 1:
            row = vec_scale(field, field.inv(row[lead]), row)
        rows = tuple((p, _axpy(field, r, r[lead], row)) if r[lead] else (p, r)
                     for p, r in self.rows)
        return ReducedSystem(field, d, rows + ((lead, row),), self.zero)

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


def independent_subset(field, vectors):
    """Subsequence of `vectors` forming a basis of their span."""
    ech = Echelon(field)
    out = []
    for v in vectors:
        if ech.add(tuple(v)):
            out.append(tuple(v))
    return out


def extend_to_basis(field, vectors, dim):
    """Complete an independent list to a full basis with standard vectors."""
    return independent_subset(field, list(vectors) + list(identity(dim)))

