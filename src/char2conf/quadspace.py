"""Quadratic forms over GF(2^n) and their isometries.

A form is stored as an upper-triangular coefficient matrix: entry (i,i) is
the coefficient of x_i^2 and entry (i,j), i<j, the coefficient of x_i*x_j.
The derived bilinear form B(u,v) = Q(u+v)+Q(u)+Q(v) is alternating in
characteristic 2, so the Gram matrix has zero diagonal and loses the
squares; that is why the triangular storage matters.

Validation happens once, at the boundary.  The public entry points
(`QuadraticForm.q`, `b`, `check_vec`, `restrict`, `transform`, `perp`
and everything built on them) check every coordinate and the vector
length.  `_q` and `_b` are internal: they take vectors that are already
validated, such as the representatives of `confgeo.ProjPoint` objects,
and skip the checks in the hot loops.  Both evaluate only the nonzero
coefficients, which the form precomputes at construction.  Over fields
with log/exp tables (n <= TABLE_DEGREE = 8) the form stores log c for
each term, and a term c*x*y costs one lookup, exp[log c + log x +
log y], into the field's 3(q - 1)-entry exp table; above that degree
the kernels multiply with `field.mul`.  `_pairing(u)` reads the Gram
row of a fixed u once and returns v -> B(u, v) over its nonzero entries,
for callers that pair one vector with many.  `restrict`
checks its basis once, evaluates through `_q`/`_b` and builds its result
with `QuadraticForm._trusted`, which skips the coefficient checks of the
public constructor (the values are field elements by construction);
`radical` and `symplectic_basis` evaluate only vectors they built
themselves, so they never re-check.  `_symplectic_reduction` runs on
the scalars Q(x_i) and B(x_i, x_j) from `coeffs` and records its steps:
`symplectic_basis` replays them on vectors, and `arf_invariant` and
`isometry_order` read the Arf sum and the radical dimension from it
without building vectors.  `enumerate_isometries` builds the group of
a plane with non-degenerate B and nothing fixed directly, column by
column (`_plane_isometries`); every other input is searched, and with
nothing fixed and a trivial radical it first refuses a closed-form
group order above ISOMETRY_ORDER_GUARD.  The isometry search evaluates
through `_q`/`_b` on vectors it builds itself.  It keeps the B-pairing
constraints on the next image in reduced row echelon form, one row per
chosen image, each carrying its right-hand side for every later level,
so a level reads its solution coset off the rows.  It cuts the coset
into lines (fibres) along its last null vector, where Q is a quadratic
in one coordinate, and takes the roots in ascending order, so the
candidates come in the order of `linalg.affine_points`.
"""

from bisect import bisect_left
from functools import cached_property

from . import linalg
from .errors import (
    ContractViolationError, DegenerateBilinearError, DegenerateFormError,
    DimMismatchError, FieldMismatchError, NotDefinedError, TooLargeError,
    document_fields,
)
from .gf2field import Arf, GF2Field

# isometry searches refuse anything with n*dim above this
ISOMETRY_GUARD = 12

# enumerate_isometries with nothing fixed refuses a form with trivial
# radical whose closed-form group order is above this.  O-(6, 2), of
# order 51,840, is listed in about 2 s and O-(4, 8), of order 524,160,
# in 22 s (Python 3.11, one core of a shared VM); O+(6, 4) would be
# 1,974,067,200 elements.
ISOMETRY_ORDER_GUARD = 100_000

# the two shapes of IsomGroup
ORTHOGONAL = "orthogonal"
DEGENERATE_PAIR = "degenerate-pair"


class Subspace:
    """A subspace given by a reduced-row-echelon basis (canonical form)."""

    def __init__(self, field, ambient_dim, vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        rows, pivots = linalg.rref(field, [tuple(v) for v in vectors])
        self.basis = tuple(rows)
        self._pivots = tuple(pivots)
        # (j, ((pivot, basis_i[j]), ...)) for each non-pivot column j,
        # listing the basis rows that are nonzero there
        self._free = tuple(
            (j, tuple((p, r[j]) for p, r in zip(pivots, rows) if r[j]))
            for j in range(ambient_dim) if j not in pivots)

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, v):
        """Coefficients c with sum c_i basis_i = v, or None outside.

        Basis row i is 1 at its pivot and 0 at every other pivot, so
        c_i is the pivot entry of v, and v lies in the span exactly when
        each other entry v_j is sum c_i basis_i[j].
        """
        v = tuple(v)
        if len(v) != self.ambient_dim:
            return None
        mul = self.field.mul
        for j, terms in self._free:
            x = v[j]
            for p, b in terms:
                if v[p]:
                    x ^= mul(v[p], b)
            if x:
                return None
        return tuple(v[p] for p in self._pivots)

    def contains(self, v):
        return self.coords(v) is not None

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d, basis=%r)" % (self.dim, self.basis)


class QuadraticForm:
    """Upper-triangular quadratic form over a GF2Field."""

    def __init__(self, field, coeffs):
        if not isinstance(field, GF2Field):
            raise TypeError("field must be a GF2Field")
        coeffs = tuple(tuple(field.check(x) for x in row) for row in coeffs)
        dim = len(coeffs)
        for i, row in enumerate(coeffs):
            if len(row) != dim:
                raise DimMismatchError("coefficient matrix is not square")
            for j in range(i):
                if row[j]:
                    raise DimMismatchError(
                        "coefficients below the diagonal must be zero")
        self._setup(field, coeffs)

    @classmethod
    def _trusted(cls, field, coeffs):
        """A form from a square upper-triangular tuple of tuples whose
        entries are already known to be field elements."""
        form = cls.__new__(cls)
        form._setup(field, coeffs)
        return form

    def _setup(self, field, coeffs):
        """Store the coefficients and precompute the terms _q/_b use."""
        dim = len(coeffs)
        self.field = field
        self.dim = dim
        self.coeffs = coeffs
        self._gram = None
        # nonzero terms only: (i, c) for c x_i^2 and (i, j, c) for c x_i x_j,
        # with log c in place of c when the field has log/exp tables
        self._log, self._exp = field._log, field._exp
        key = (lambda c: c) if self._log is None else self._log.__getitem__
        self._squares = tuple((i, key(row[i])) for i, row in enumerate(coeffs)
                              if row[i])
        self._cross = tuple((i, j, key(row[j])) for i, row in enumerate(coeffs)
                            for j in range(i + 1, dim) if row[j])

    def check_vec(self, v):
        v = tuple(v)
        order = self.field.order
        for x in v:
            if type(x) is not int or not 0 <= x < order:
                self.field.check(x)  # raises the field's own error
        if len(v) != self.dim:
            raise DimMismatchError(
                "vector length %d != dim %d" % (len(v), self.dim))
        return v

    def q(self, v):
        """Q(v) = sum over i<=j of coeffs[i][j] v_i v_j."""
        return self._q(self.check_vec(v))

    def _q(self, v):
        """Q(v) for a vector already validated against this form.

        With tables (n <= TABLE_DEGREE) each nonzero term is one lookup,
        exp[log c + log x + log y]; above that, `mul` products.
        """
        log = self._log
        if log is None:
            return self._q_by_mul(v)
        exp = self._exp
        acc = 0
        for i, lc in self._squares:
            x = v[i]
            if x:
                acc ^= exp[lc + 2 * log[x]]
        for i, j, lc in self._cross:
            x, y = v[i], v[j]
            if x and y:
                acc ^= exp[lc + log[x] + log[y]]
        return acc

    def _q_by_mul(self, v):
        """_q by `field.mul` products, for fields without tables."""
        mul = self.field.mul
        acc = 0
        for i, c in self._squares:
            x = v[i]
            if x:
                x = mul(x, x)
                acc ^= x if c == 1 else mul(c, x)
        for i, j, c in self._cross:
            x, y = v[i], v[j]
            if x and y:
                x = mul(x, y)
                acc ^= x if c == 1 else mul(c, x)
        return acc

    def gram(self):
        """Matrix of the derived bilinear form B(e_i, e_j)."""
        if self._gram is None:
            d = self.dim
            g = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    g[i][j] = g[j][i] = self.coeffs[i][j]
            self._gram = tuple(tuple(r) for r in g)
        return self._gram

    def b(self, u, v):
        """B(u,v) = Q(u+v) + Q(u) + Q(v)."""
        return self._b(self.check_vec(u), self.check_vec(v))

    def _b(self, u, v):
        """B(u,v) for vectors already validated against this form.

        B(u,v) = sum over i<j of coeffs[i][j] (u_i v_j + u_j v_i): the
        squares cancel in characteristic 2.  With tables (n <=
        TABLE_DEGREE) each product is one lookup, exp[log c + log u_i +
        log v_j]; above that, `mul` products.
        """
        log = self._log
        if log is None:
            return self._b_by_mul(u, v)
        exp = self._exp
        acc = 0
        for i, j, lc in self._cross:
            ui, uj, vi, vj = u[i], u[j], v[i], v[j]
            if ui and vj:
                acc ^= exp[lc + log[ui] + log[vj]]
            if uj and vi:
                acc ^= exp[lc + log[uj] + log[vi]]
        return acc

    def _b_by_mul(self, u, v):
        """_b by `field.mul` products, for fields without tables."""
        mul = self.field.mul
        acc = 0
        for i, j, c in self._cross:
            ui, uj, vi, vj = u[i], u[j], v[i], v[j]
            x = (mul(ui, vj) if ui and vj else 0) ^ \
                (mul(uj, vi) if uj and vi else 0)
            if x:
                acc ^= x if c == 1 else mul(c, x)
        return acc

    def _pairing(self, u):
        """v -> B(u, v), for u and v already validated against this form.

        B(u, v) = sum_j w_j v_j with w = Gram u, so the pairing keeps the
        nonzero w_j once (as log w_j on fields with tables) and then
        costs one lookup, or one `mul`, per nonzero term.  Callers that
        pair one fixed vector with many use it in place of `_b`.
        """
        w = linalg.mat_vec(self.field, self.gram(), u)
        log = self._log
        if log is None:
            mul = self.field.mul
            terms = tuple((j, x) for j, x in enumerate(w) if x)

            def pairing(v):
                acc = 0
                for j, x in terms:
                    y = v[j]
                    if y:
                        acc ^= mul(x, y)
                return acc
        else:
            exp = self._exp
            terms = tuple((j, log[x]) for j, x in enumerate(w) if x)

            def pairing(v):
                acc = 0
                for j, lx in terms:
                    y = v[j]
                    if y:
                        acc ^= exp[lx + log[y]]
                return acc
        return pairing

    def radical(self):
        """{v : B(v,.) = 0 and Q(v) = 0} as a Subspace.

        On the kernel of B the form satisfies Q(sum c_i k_i) =
        (sum c_i sqrt(Q(k_i)))^2, so the Q = 0 condition is one more
        linear constraint over the field.
        """
        f = self.field
        kernel = linalg.nullspace(f, list(self.gram()))
        if not kernel:
            return Subspace(f, self.dim, [])
        weights = [f.sqrt(self._q(k)) for k in kernel]
        vectors = [linalg.combine(f, lam, kernel)
                   for lam in linalg.nullspace(f, [tuple(weights)])]
        return Subspace(f, self.dim, vectors)

    def restrict(self, basis):
        """The form pulled back to coordinates over the given vectors."""
        basis = [self.check_vec(v) for v in basis]
        k = len(basis)
        coeffs = [[0] * k for _ in range(k)]
        for i in range(k):
            coeffs[i][i] = self._q(basis[i])
            for j in range(i + 1, k):
                coeffs[i][j] = self._b(basis[i], basis[j])
        return QuadraticForm._trusted(self.field,
                                      tuple(map(tuple, coeffs)))

    def transform(self, t):
        """The form v -> Q(T@v); columns of t are the new basis vectors."""
        cols = [linalg.mat_col(t, j) for j in range(len(t[0]))]
        return self.restrict(cols)

    def direct_sum(self, other):
        if self.field != other.field:
            raise FieldMismatchError("direct sum over different fields")
        d1, d2 = self.dim, other.dim
        coeffs = [[0] * (d1 + d2) for _ in range(d1 + d2)]
        for i in range(d1):
            for j in range(i, d1):
                coeffs[i][j] = self.coeffs[i][j]
        for i in range(d2):
            for j in range(i, d2):
                coeffs[d1 + i][d1 + j] = other.coeffs[i][j]
        return QuadraticForm(self.field, coeffs)

    def perp(self, vectors):
        """{w : B(w, v) = 0 for every given v} as a Subspace."""
        f = self.field
        rows = [linalg.mat_vec(f, self.gram(), self.check_vec(v))
                for v in vectors]
        if not rows:
            return Subspace(f, self.dim, linalg.identity(self.dim))
        return Subspace(f, self.dim, linalg.nullspace(f, rows))

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "QuadraticForm(%r, %r)" % (self.field, self.coeffs)

    def to_json(self):
        return {"field": self.field.to_json(), "dim": self.dim,
                "coeffs": [list(row) for row in self.coeffs]}

    @classmethod
    def from_json(cls, doc):
        field_doc, dim, coeffs = document_fields(
            doc, "form", field="any", dim="int", coeffs="rows")
        form = cls(GF2Field.from_json(field_doc), coeffs)
        if form.dim != dim:
            raise DimMismatchError("dim field disagrees with coeffs shape")
        return form


class IsomGroup:
    """A finite group of isometries, as matrices or as labeled pairs.

    Orthogonal kind: elements are square matrices preserving `form`
    (when known), composing by matrix product.  Degenerate-pair kind:
    elements are (a1, eps) labels in K+ x F2+ composing by componentwise
    addition, so every element is its own inverse.  `alpha` is the Arf
    value of a plane group.  Groups built from a geometry carry `lift`
    (a `metric.LineFrame`), which `ambient_matrix` calls to build an
    element's matrix on the full space.  Elements are kept sorted, so
    membership is a binary search; an element of the other kind is not
    a member.

    A group built with a known `order` takes, in place of the elements,
    a zero-argument callable that returns them.  Its order is then
    known at once, and the elements are listed on first use: a read of
    `elements`, iteration, membership or `identity`.  The listing must
    have exactly `order` distinct elements, or ContractViolationError is
    raised.
    """

    def __init__(self, field, elements, kind=ORTHOGONAL, form=None,
                 alpha=None, lift=None, order=None):
        self.field = field
        if order is None:
            self.elements = tuple(sorted(set(elements)))
            order = len(self.elements)
        else:
            self._listing = elements
        self.order = order
        self.kind = kind
        self.form = form
        self.alpha = alpha
        self.lift = lift
        self._plus = None  # rotations or eps = 0 labels, by metric.ort_plus

    @cached_property
    def elements(self):
        # reached only by a group built with a known order; a group given
        # its elements holds them as a plain attribute
        listed = tuple(sorted(set(self._listing())))
        if len(listed) != self.order:
            raise ContractViolationError(
                "listed %d elements of a group of order %d"
                % (len(listed), self.order))
        return listed

    def __len__(self):
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        # an element of the other kind is not comparable with these
        try:
            i = bisect_left(self.elements, m)
        except TypeError:
            return False
        return i < len(self.elements) and self.elements[i] == m

    def identity(self):
        if self.kind == ORTHOGONAL:
            return linalg.identity(len(self.elements[0]))
        return (0, 0)

    def mul(self, a, b):
        if self.kind == ORTHOGONAL:
            return linalg.mat_mul(self.field, a, b)
        return (a[0] ^ b[0], a[1] ^ b[1])

    def inv(self, m):
        if self.kind != ORTHOGONAL:
            return m
        out = linalg.mat_inv(self.field, m)
        if out is None:
            raise ContractViolationError("group element is singular")
        return out

    def ambient_matrix(self, a):
        if self.lift is None:
            raise NotDefinedError("group has no ambient realization")
        if a not in self:
            raise NotDefinedError("%r is not an element of the group" % (a,))
        return self.lift(a)

    def __repr__(self):
        return "IsomGroup(%s, order=%d, alpha=%s)" % (
            self.kind, self.order, self.alpha)


def _level_set(form, particular, null, target):
    """The points v of particular + span(null) with Q(v) = target, in the
    order of `linalg.affine_points`.

    The coset is cut into fibres w + t n along its last null vector n,
    where Q(w + t n) = a t^2 + b t + Q(w) with a = Q(n) and b = B(w, n):
    with a and b nonzero the roots are t = (b/a) s for the roots s of
    s^2 + s = a (Q(w) + target) / b^2; with one of them zero there is at
    most one root, and with both zero every t or none.  Each fibre's
    roots come out in ascending t, which is the order of affine_points.
    """
    if not null:
        if form._q(particular) == target:
            yield particular
        return
    field = form.field
    mul, inv = field.mul, field.inv
    n = null[-1]
    a = form._q(n)
    a_inv = inv(a) if a else 0
    for w in linalg.affine_points(field, particular, null[:-1]):
        b = form._b(w, n)
        c = form._q(w) ^ target
        if a and b:
            # roots s and s + 1, so t and t + b/a
            scale = mul(b, a_inv)
            if not c:
                ts = (0, scale)
            else:
                roots = field.solve_quadratic(mul(mul(a, c), inv(mul(b, b))))
                if roots is None:
                    continue
                t = mul(scale, roots[0])
                ts = (t, t ^ scale) if t < t ^ scale else (t ^ scale, t)
        elif a:
            ts = (field.sqrt(mul(c, a_inv)),)
        elif b:
            ts = (mul(c, inv(b)),)
        elif c:
            continue
        else:
            ts = field.elements()
        for t in ts:
            yield linalg.vec_add(w, linalg.vec_scale(field, t, n)) if t else w


def _isometry_search(src, dst, fixed):
    """Backtracking search for matrices M with Q_dst(M@v) = Q_src(v).

    fixed is an independent list of vectors that M must fix.  It is
    extended to a basis base, and the image cols[k] of each further
    base[k] is chosen in turn.  It must pair with every earlier image as
    base[k] does with base[j]: the rows Gram_dst @ cols[j] with sides
    B_src(base[j], base[k]) for every k, kept in one
    `linalg.ReducedSystem`, so a level reads its solution coset off the
    reduced rows; the last level adds no row.  `_level_set` then solves
    Q on the coset fibre by fibre, in the order of `linalg.affine_points`,
    and the points outside the span of the earlier images, a second
    `ReducedSystem`, are the candidates.  Both systems are persistent:
    each level passes its grown systems down and keeps its own, so
    nothing is undone on the way back.  Each M = cols @ base^-1 is
    assembled by columns: a unit column of base^-1 picks one image.
    Returns a generator of the matrices in first-found order.
    TooLargeError (when `isometry_guard` refuses n*dim) is raised at call
    time, before any search.
    """
    field = src.field
    dim = dst.dim
    isometry_guard(field, dim)
    base = linalg.extend_to_basis(field, fixed, src.dim)
    last = len(base) - 1
    gram_dst = dst.gram()
    q_target = [src.q(v) for v in base]
    b_target = [tuple(src._b(u, v) for v in base) for u in base]

    def pushed(system, v, j):
        # Gram_dst is symmetric, so Gram_dst @ v = sum v_i (row i)
        return system.with_row(linalg.combine(field, v, gram_dst)
                               + b_target[j])

    span = linalg.ReducedSystem(field, dim)  # of the chosen images
    system = linalg.ReducedSystem(field, dim)
    for j, c in enumerate(fixed):
        span, system = span.with_row(c), pushed(system, c, j)

    # M @ base[i] = cols[i], so column j of M is cols @ (column j of
    # base^-1): cols[i] itself when that column is e_i
    inv_cols = linalg.transpose(
        linalg.mat_inv(field, linalg.transpose(base)))
    picks = [c.index(1) if c.count(0) == len(c) - 1 and 1 in c else c
             for c in inv_cols]

    def matrix(cols):
        return tuple(zip(*[cols[p] if type(p) is int
                           else linalg.combine(field, p, cols)
                           for p in picks]))

    def extend(cols, system, span):
        k = len(cols)
        if k > last:  # every image forced
            yield matrix(cols)
            return
        solved = system.solution(k)
        if solved is None:
            return
        points = _level_set(dst, solved[0], solved[1], q_target[k])
        if k == last:
            for v in points:
                if any(span.reduce(v)):
                    yield matrix(cols + (v,))
            return
        for v in points:
            grown = span.with_row(v)
            if grown is not span:
                yield from extend(cols + (v,), pushed(system, v, k), grown)

    return extend(tuple(fixed), system, span)


def _symplectic_reduction(form):
    """(steps, arf_sum, rest, radical_dim) of the symplectic reduction.

    Runs on scalars q[g] = Q(x_g) and b[g][h] = B(x_g, x_h) for the x_g
    not yet paired, from x_g = e_g.  Pairing e = x_i with f = s x_j,
    s = B(x_i, x_j)^-1, gives Q(f) = s^2 Q(x_j), and projecting x_g to
    x_g + a e + c f with a = B(x_g, f), c = B(x_g, e) gives Q(x_g) +
    a^2 Q(e) + c^2 Q(f) + a c and B(x_g, x_h) + a_h c_g + a_g c_h.  steps
    holds one (i, j, s, proj) per pair, proj the (g, a, c) it moved;
    arf_sum is the sum of Q(e) Q(f).  The x_g of the unpaired indices
    `rest` span ker B, where Q is the square of a linear form, so the
    radical is ker B less one dimension unless Q is zero on all of them.
    """
    field = form.field
    mul = field.mul
    q = [row[i] for i, row in enumerate(form.coeffs)]
    b = [list(row) for row in form.gram()]
    rest = list(range(form.dim))
    steps = []
    acc = 0
    while rest:
        pair = next(((i, j) for k, i in enumerate(rest)
                     for j in rest[k + 1:] if b[i][j]), None)
        if pair is None:
            return steps, acc, rest, len(rest) - any(q[g] for g in rest)
        i, j = pair
        s = field.inv(b[i][j])
        qe, qf = q[i], mul(mul(s, s), q[j])
        acc ^= mul(qe, qf)
        rest.remove(i)
        rest.remove(j)
        # (g, a, c) with a = B(g, f) and c = B(g, e); g with a = c = 0
        # is already orthogonal to the pair and changes nothing
        proj = [(g, mul(s, b[g][j]), b[g][i]) for g in rest
                if b[g][i] or b[g][j]]
        for k, (g, ag, cg) in enumerate(proj):
            x = mul(ag, cg)
            if ag:
                x ^= mul(mul(ag, ag), qe)
            if cg:
                x ^= mul(mul(cg, cg), qf)
            q[g] ^= x
            for h, ah, ch in proj[k + 1:]:
                y = mul(ah, cg) ^ mul(ag, ch)
                b[g][h] ^= y
                b[h][g] ^= y
        steps.append((i, j, s, proj))
    return steps, acc, rest, 0


def symplectic_basis(form):
    """Pairs (e_i, f_i) with B(e_i,f_i) = 1 and all other pairings zero.

    The vectors replay the steps of `_symplectic_reduction` on the
    standard basis; the checks at the end evaluate B on them afresh, so
    they also check the reduction's scalar updates.
    """
    steps, _, rest, _ = _symplectic_reduction(form)
    if rest:
        raise DegenerateBilinearError(
            "bilinear form degenerate: no pairing left among %d vectors"
            % len(rest))
    f = form.field
    vecs = list(linalg.identity(form.dim))
    pairs = []
    for i, j, s, proj in steps:
        e, v = vecs[i], linalg.vec_scale(f, s, vecs[j])
        # project onto the complement of the pair: g + B(g,v) e + B(g,e) v
        for g, a, c in proj:
            vecs[g] = linalg.combine(f, (1, a, c), (vecs[g], e, v))
        pairs.append((e, v))
    b = form._b  # every vector above is built here from the standard basis
    for a, (e1, f1) in enumerate(pairs):
        if b(e1, f1) != 1:
            raise ContractViolationError("symplectic pair not normalized")
        for e2, f2 in pairs[a + 1:]:
            if any((b(e1, e2), b(e1, f2), b(f1, e2), b(f1, f2))):
                raise ContractViolationError("symplectic pairs not orthogonal")
    return pairs


def arf_invariant(form):
    """Arf invariant as an exact Arf value (finite element or infinity).

    The value is the sum of Q(e) Q(f) over the pairs of
    `symplectic_basis(form)`, read from `_symplectic_reduction` without
    building the basis vectors.  A plane with B = 0 has value infinity;
    any other form with B degenerate raises DegenerateFormError for a
    nontrivial radical, else DegenerateBilinearError (B has even rank).
    """
    _, arf_sum, rest, radical_dim = _symplectic_reduction(form)
    if not rest:
        return Arf.finite(arf_sum)
    if form.dim == 2:
        return Arf.infinity()
    if radical_dim:
        raise DegenerateFormError("form has a nontrivial radical")
    raise DegenerateBilinearError("odd dimension: no symplectic decomposition")


def isometry_order(form):
    """Order of the isometry group O(Q) of a form with trivial radical.

    A trivial radical leaves the bilinear kernel at most a line, so the
    order has a closed form (Taylor, The Geometry of the Classical
    Groups, 1992, ch. 11; Grove, Classical Groups and Geometric Algebra,
    2002, ch. 14).  In dimension 2m, B is non-degenerate and
    |O| = 2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1) with eps = +1
    exactly when the Arf value has trace 0.  In dimension 2m + 1 the kernel
    is a line on which Q is nonzero, O acts faithfully on the symplectic
    quotient by that line, and |O| = |Sp_2m(q)| =
    q^(m^2) prod_{i<=m} (q^(2i) - 1).  The 0-dimensional group is
    trivial.  Raises DegenerateFormError for a nontrivial radical.  The
    radical test and eps read one `_symplectic_reduction`.
    """
    _, arf_sum, _, radical_dim = _symplectic_reduction(form)
    if radical_dim:
        raise DegenerateFormError("form has a nontrivial radical")
    return _closed_order(form.field, form.dim, arf_sum)


def _closed_order(field, dim, arf_sum):
    """|O(Q)| for a form with trivial radical, from its Arf sum."""
    q = field.order
    m, odd = divmod(dim, 2)
    prod = 1
    for i in range(1, m + odd):
        prod *= q ** (2 * i) - 1
    if odd:
        return q ** (m * m) * prod
    if m == 0:
        return 1
    eps = -1 if field.trace(arf_sum) else 1
    return 2 * q ** (m * (m - 1)) * (q ** m - eps) * prod


def spaces_isomorphic(f1, f2):
    """A matrix T with Q2(T@v) = Q1(v) for all v, or None.

    After `isometry_guard`, one `_symplectic_reduction` per form reads
    its isometry invariants: dim ker B, the radical dimension and, when
    Q vanishes on ker B, the trace of the Arf sum.  The form is then
    W + ker B with W non-degenerate of that Arf value and ker B the
    radical, so the trace is the class of the quotient by the radical
    (Taylor 1992, ch. 11).  Forms that differ in one are answered None
    at once; every other pair is searched, so a returned T is the
    search's first match.
    """
    if f1.field != f2.field:
        raise FieldMismatchError("forms live over different fields")
    if f1.dim != f2.dim:
        raise DimMismatchError("forms have different dimensions")
    isometry_guard(f1.field, f1.dim)
    _, arf1, rest1, radical1 = _symplectic_reduction(f1)
    _, arf2, rest2, radical2 = _symplectic_reduction(f2)
    if len(rest1) != len(rest2) or radical1 != radical2:
        return None
    trace = f1.field.trace
    if len(rest1) == radical1 and trace(arf1) != trace(arf2):
        return None
    return next(_isometry_search(f1, f2, []), None)


def isometry_guard(field, dim):
    """Raise TooLargeError unless isometries of a dim-dimensional form
    over field may be enumerated.

    `_isometry_search` checks it first, so every search refuses before
    any work; a caller that does other work before it calls this itself.
    """
    if field.n * dim > ISOMETRY_GUARD:
        raise TooLargeError(
            "n*dim = %d exceeds enumeration guard %d"
            % (field.n * dim, ISOMETRY_GUARD))


def _plane_isometries(form):
    """The matrices [u | v] of O(Q) for a plane with B non-degenerate.

    With Q = a x^2 + b xy + c y^2, [u | v] preserves Q exactly when
    Q(u) = a, Q(v) = c and B(u, v) = b; the last makes u and v
    independent.  The first columns are the level set Q(u) = a, one
    quadratic in u1 per u0.  The second column lies on the line
    B(u, v) = b, which is u0 v1 + u1 v0 = 1 through a point w = (0, 1/u0)
    or (1/u1, 0), along u itself (B(u, u) = 0).  On it Q(w + t u) =
    Q(w) + a t^2 + b t, so Q(v) = c is one more quadratic,
    a t^2 + b t = Q(w) + c, whose coefficients do not depend on u.  The
    group is dihedral of order 2(q - eps) (Taylor 1992, ch. 11).
    """
    field = form.field
    mul, inv = field.mul, field.inv
    (a, b), (_, c) = form.coeffs
    b_inv = inv(b)
    if a:  # t = (b/a) s with s^2 + s = (a/b^2)(Q(w) + c)
        scale, shift = mul(b, inv(a)), mul(a, mul(b_inv, b_inv))
    for u0, u1 in _level_set(form, (0, 0), [(1, 0), (0, 1)], a):
        if u0:
            w = (0, inv(u0))
            rhs = mul(c, mul(w[1], w[1])) ^ c
        elif u1:
            w = (inv(u1), 0)
            rhs = mul(a, mul(w[0], w[0])) ^ c
        else:
            continue  # u = 0 pairs to zero with every v
        if not a:
            ts = (mul(rhs, b_inv),)
        else:
            roots = field.solve_quadratic(mul(shift, rhs))
            if roots is None:
                continue
            ts = [mul(scale, s) for s in roots]
        for t in ts:
            yield ((u0, w[0] ^ mul(t, u0)), (u1, w[1] ^ mul(t, u1)))


def enumerate_isometries(form, fixed=None):
    """Every invertible matrix preserving Q and fixing `fixed` pointwise.

    A plane with B non-degenerate and nothing fixed is built directly by
    `_plane_isometries`; every other input is searched.  Both refuse
    through `isometry_guard` before any work.  A search with nothing
    fixed lists the whole group, so where the radical is trivial it
    also refuses at once when the closed-form order of
    `isometry_order`, read from one `_symplectic_reduction`, is above
    ISOMETRY_ORDER_GUARD.
    """
    field = form.field
    anchors = linalg.independent_subset(
        field, [form.check_vec(v) for v in (fixed or [])])
    if not anchors:
        isometry_guard(field, form.dim)
        if form.dim == 2 and form.coeffs[0][1]:
            return IsomGroup(field, _plane_isometries(form), form=form)
        _, arf_sum, _, radical_dim = _symplectic_reduction(form)
        if not radical_dim:
            order = _closed_order(field, form.dim, arf_sum)
            if order > ISOMETRY_ORDER_GUARD:
                raise TooLargeError(
                    "isometry group of order %d exceeds enumeration guard %d"
                    % (order, ISOMETRY_ORDER_GUARD))
    return IsomGroup(field, _isometry_search(form, form, anchors), form=form)

