"""Exact linear algebra over GF(2^n).

Vectors are tuples of field elements (ints); matrices are tuples of row
tuples.  Matrices act on column vectors: (M@v)[i] = sum_j M[i][j]*v[j].
"""

from itertools import product


def zeros(dim):
    return tuple(0 for _ in range(dim))


def identity(dim):
    return tuple(tuple(1 if i == j else 0 for j in range(dim))
                 for i in range(dim))


def vec_add(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def vec_scale(field, c, v):
    return tuple(field.mul(c, a) for a in v)


def combine(field, coeffs, vectors):
    """sum c_i v_i: the zero vector of the vectors' length when every c_i
    is zero, and the empty tuple when there are no vectors."""
    acc = zeros(len(vectors[0])) if vectors else ()
    for c, v in zip(coeffs, vectors):
        if c:
            acc = vec_add(acc, vec_scale(field, c, v))
    return acc


def dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc ^= field.mul(a, b)
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


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [tuple(r) for r in rows]
    out = []
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        for p, r in zip(pivots, out):
            if row[p]:
                row = vec_add(row, vec_scale(field, row[p], r))
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        row = vec_scale(field, field.inv(row[lead]), row)
        out = [vec_add(r, vec_scale(field, r[lead], row)) if r[lead] else r
               for r in out]
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
                v = vec_add(v, vec_scale(field, c, b))
        yield v


def nullspace(field, a_rows):
    """Basis of {x : A@x = 0}."""
    d = len(a_rows[0]) if a_rows else 0
    solved = solve_affine(field, a_rows, [0] * len(a_rows))
    if solved is None:
        raise AssertionError("homogeneous system cannot be inconsistent")
    return solved[1] if d else []


def intersect_spans(field, basis1, basis2):
    """Basis of span(basis1) & span(basis2).

    A vector lies in both spans exactly when some coefficient tuple
    (a, b) satisfies sum a_i u_i + sum b_j w_j = 0 (char 2 absorbs the
    sign), so the intersection is spanned by the u-parts of the kernel
    of the matrix whose columns are both generating sets.
    """
    if not basis1 or not basis2:
        return []
    dim = len(basis1[0])
    cols = list(basis1) + list(basis2)
    rows = [tuple(c[i] for c in cols) for i in range(dim)]
    vectors = [combine(field, lam[:len(basis1)], basis1)
               for lam in nullspace(field, rows)]
    reduced, _ = rref(field, vectors)
    return [r for r in reduced if any(r)]


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
                v = vec_add(v, vec_scale(self.field, v[p], r))
        return v

    def add(self, v):
        """Insert v; returns False when v was dependent."""
        v = self.reduce(v)
        lead = next((j for j in range(len(v)) if v[j]), None)
        if lead is None:
            return False
        v = vec_scale(self.field, self.field.inv(v[lead]), v)
        self.rows.append((lead, v))
        return True

    def snapshot(self):
        return list(self.rows)

    def restore(self, snap):
        self.rows = snap


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


def coords_in(field, basis, v):
    """Coefficients c with sum c_i basis_i = v, or None if v not in span."""
    cols = [tuple(b) for b in basis]
    a_rows = [tuple(col[i] for col in cols) for i in range(len(v))]
    solved = solve_affine(field, a_rows, list(v))
    if solved is None:
        return None
    return solved[0]
