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
row of a fixed u once and returns v -> B(u, v) over its nonzero entries
(on fields with tables; above them it is `_b` with u bound), for
callers that pair one vector with many.  `restrict`
checks its basis once, evaluates through `_q`/`_b` and builds its result
with `QuadraticForm._trusted`, which skips the coefficient checks of the
public constructor (the values are field elements by construction);
`radical` evaluates only vectors it built itself, so it never
re-checks.  `_symplectic_reduction` runs on the scalars Q(x_i) and
B(x_i, x_j) from `coeffs` and records its steps: `_symplectic_vectors`
replays them on vectors, for `witt_basis`, and `arf_invariant` and
`isometry_order` read the Arf sum and the radical dimension from it
without building vectors.  `spaces_isomorphic` compares Witt bases.
`enumerate_isometries` is the one place that knows group orders, guards
listings and runs the isometry search.  Where theory gives the order
(nothing fixed and a trivial radical, or one fixed vector and B
non-degenerate) it returns the group at once and lists it on first read;
every other group is listed at call time.  A listing refuses an n*dim
above ISOMETRY_GUARD first, and with nothing fixed it also refuses an
order above ISOMETRY_ORDER_GUARD.  A plane with nothing fixed is listed
column by column (`_plane_isometries`); every other listing is
`_isometry_search`.  No function here solves a quadratic itself: roots
come from `GF2Field.quadratic_roots` and `solve_quadratic`.
"""

from bisect import bisect_left
from functools import cached_property, partial

from . import linalg
from .errors import (
    ContractViolationError, DegenerateBilinearError, DegenerateFormError,
    DimMismatchError, FieldMismatchError, NotDefinedError, TooLargeError,
    document_fields,
)
from .gf2field import Arf, GF2Field

# isometry listings refuse anything with n*dim above this
ISOMETRY_GUARD = 12

# enumerate_isometries with nothing fixed refuses to list the group of a
# form with trivial radical whose closed-form order is above this.
# O-(6, 2), of order 51,840, is listed in about 2 s and O-(4, 8), of
# order 524,160, in 22 s (Python 3.11, one core of a shared VM); O+(6, 4)
# would be 1,974,067,200 elements.
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
        # (j, ((pivot, basis_i[j]), ...)) for each non-pivot column j,
        # listing the basis rows that are nonzero there
        self._free = tuple(
            (j, tuple((p, r[j]) for p, r in zip(pivots, rows) if r[j]))
            for j in range(ambient_dim) if j not in pivots)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        """Whether v lies in the span.

        Basis row i is 1 at its pivot and 0 at every other pivot, so the
        only candidate coefficients are the pivot entries of v, and v
        lies in the span exactly when each other entry v_j is
        sum_i v[pivot_i] basis_i[j].
        """
        v = tuple(v)
        if len(v) != self.ambient_dim:
            return False
        mul = self.field.mul
        for j, terms in self._free:
            x = v[j]
            for p, b in terms:
                if v[p]:
                    x ^= mul(v[p], b)
            if x:
                return False
        return True

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

        B(u, v) = sum_j w_j v_j with w = Gram u, so on fields with tables
        the pairing keeps log w_j for the nonzero w_j once and then costs
        one lookup per nonzero term.  Callers that pair one fixed vector
        with many use it in place of `_b`, which it falls back on above
        TABLE_DEGREE (its callers reach only n <= 4, the quadric cap).
        """
        log = self._log
        if log is None:
            return partial(self._b, u)
        w = linalg.mat_vec(self.field, self.gram(), u)
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
    where Q(w + t n) = a t^2 + b t + Q(w) with a = Q(n) and b = B(w, n),
    and `GF2Field.quadratic_roots` gives each fibre's roots in ascending
    t, which is the order of affine_points.  null is never empty: a
    search level has fewer pairing rows than the dimension.
    """
    field = form.field
    n = null[-1]
    a = form._q(n)
    for w in linalg.affine_points(field, particular, null[:-1]):
        for t in field.quadratic_roots(a, form._b(w, n),
                                       form._q(w) ^ target):
            yield linalg.vec_add(w, linalg.vec_scale(field, t, n)) if t else w


def _isometry_search(form, fixed):
    """Backtracking search for the isometries M of the form, Q(M@v) = Q(v).

    fixed is an independent list of vectors that M must fix.  It is
    extended to a basis base, and the image cols[k] of each further
    base[k] is chosen in turn.  It must pair with every earlier image as
    base[k] does with base[j]: the rows Gram @ cols[j] with sides
    B(base[j], base[k]) for every k, kept in one
    `linalg.ReducedSystem`, so a level reads its solution coset off the
    reduced rows; the last level adds no row.  `_level_set` then solves
    Q on the coset fibre by fibre, in the order of `linalg.affine_points`,
    and the points outside the span of the earlier images, a second
    `ReducedSystem`, are the candidates.  Both systems are persistent:
    each level passes its grown systems down and keeps its own, so
    nothing is undone on the way back.  Each M is one product,
    [cols] @ [base]^-1.  Returns a generator of the matrices.  It does
    no guarding: its one caller, `enumerate_isometries`, refuses an
    n*dim above ISOMETRY_GUARD before it searches.
    """
    field = form.field
    dim = form.dim
    if not dim:
        return iter([()])  # the 0x0 matrix, the one isometry
    base = linalg.extend_to_basis(field, fixed, dim)
    last = len(base) - 1
    gram = form.gram()
    q_target = [form.q(v) for v in base]
    b_target = [tuple(form._b(u, v) for v in base) for u in base]

    def pushed(system, v, j):
        # Gram is symmetric, so Gram @ v = sum v_i (row i)
        return system.with_row(linalg.combine(field, v, gram)
                               + b_target[j])

    span = linalg.ReducedSystem(field, dim)  # of the chosen images
    system = linalg.ReducedSystem(field, dim)
    for j, c in enumerate(fixed):
        span, system = span.with_row(c), pushed(system, c, j)

    # M @ base[i] = cols[i]
    base_inv = linalg.mat_inv(field, linalg.from_columns(base))

    def matrix(cols):
        return linalg.mat_mul(field, linalg.from_columns(cols), base_inv)

    def extend(cols, system, span):
        k = len(cols)
        if k > last:  # every image forced
            yield matrix(cols)
            return
        solved = system.solution(k)
        if solved is None:
            return
        points = _level_set(form, solved[0], solved[1], q_target[k])
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


def _symplectic_vectors(form):
    """The steps of `_symplectic_reduction` replayed on the standard basis:
    the symplectic pairs (e, f) and the x_g left unpaired, a basis of
    ker B."""
    steps, _, rest, _ = _symplectic_reduction(form)
    f = form.field
    vecs = list(linalg.identity(form.dim))
    pairs = []
    for i, j, s, proj in steps:
        e, v = vecs[i], linalg.vec_scale(f, s, vecs[j])
        # project onto the complement of the pair: g + B(g,v) e + B(g,e) v
        for g, a, c in proj:
            vecs[g] = linalg.combine(f, (1, a, c), (vecs[g], e, v))
        pairs.append((e, v))
    return pairs, [vecs[g] for g in rest]


def hyperbolic_pair(form, iso, other):
    """iso / b and other + (Q(other) / b) iso for Q(iso) = 0 and
    b = B(iso, other) != 0: Q is 0 on both and they pair to 1."""
    field = form.field
    b = form.b(iso, other)
    fixed = linalg.combine(field, (1, field.div(form.q(other), b)),
                           (other, iso))
    return linalg.vec_scale(field, field.inv(b), iso), fixed


def _unit_pair(form, e, f):
    """e / sqrt(Q(e)) and sqrt(Q(e)) f: Q(e) becomes 1, B(e, f) stays."""
    a = form.field.sqrt(form._q(e))
    return (linalg.vec_scale(form.field, form.field.inv(a), e),
            linalg.vec_scale(form.field, a, f))


def _split_pair(form, u, v):
    """A hyperbolic pair spanning u and v, B(u, v) = 1, or None if none
    exists: an isotropic u or v pairs with the other, else t u + v is
    isotropic for t = s / Q(u), s the smaller root of s^2 + s = Q(u)Q(v)."""
    field = form.field
    qu, qv = form._q(u), form._q(v)
    if not qu:
        return hyperbolic_pair(form, u, v)
    if not qv:
        return hyperbolic_pair(form, v, u)
    # the least t of quadratic_roots would change normal_form's witness
    roots = field.solve_quadratic(field.mul(qu, qv))
    if roots is None:
        return None
    w = linalg.combine(field, (field.div(roots[0], qu), 1), (u, v))
    return hyperbolic_pair(form, w, u)


def witt_basis(form):
    """A basis in Witt decomposition (Taylor, The Geometry of the
    Classical Groups, 1992, ch. 11): the anisotropic pair (e, f), if any,
    with B(e, f) = 1 and Q(e), Q(f) != 0, then hyperbolic pairs (Q = 0,
    B = 1), then k0 with Q(k0) = 1 if Q is nonzero on ker B, then the
    radical.  The first kernel vector of `_symplectic_vectors` with
    Q != 0, scaled, is k0, and every other vector w moves to
    w + sqrt(Q(w)) k0, where Q is 0.  `_split_pair` splits each pair;
    two anisotropic ones, made (e1, f1), (e2, f2) by `_unit_pair`, give
    the isotropic e1 + e2, split off with f1, and the class-zero pair
    (f1 + f2, e2).  ContractViolationError is raised unless the
    restricted coefficients are the block matrix above."""
    field = form.field
    q, sqrt = form._q, field.sqrt
    pairs, kernel = _symplectic_vectors(form)
    k0 = next((k for k in kernel if q(k)), None)
    if k0 is not None:
        kernel.remove(k0)
        k0 = linalg.vec_scale(field, field.inv(sqrt(q(k0))), k0)

        def shift(w):
            return linalg.combine(field, (1, sqrt(q(w))), (w, k0))
        kernel = [shift(k) for k in kernel]
        pairs = [(shift(u), shift(v)) for u, v in pairs]
    hyperbolic, anisotropic = [], []
    for u, v in pairs:  # a class-zero remainder is appended and split
        split = _split_pair(form, u, v)
        if split is not None:
            hyperbolic += split
        elif not anisotropic:
            anisotropic = [u, v]
        else:
            (e1, f1), (e2, f2) = (_unit_pair(form, *anisotropic),
                                  _unit_pair(form, u, v))
            anisotropic = []
            hyperbolic += hyperbolic_pair(form, linalg.vec_add(e1, e2), f1)
            pairs.append((linalg.vec_add(f1, f2), e2))
    paired = len(anisotropic) + len(hyperbolic)
    basis = anisotropic + hyperbolic + ([] if k0 is None else [k0]) + kernel
    coeffs = form.restrict(basis).coeffs
    want = [[int(i % 2 == 0 and j == i + 1 < paired) for j in range(form.dim)]
            for i in range(form.dim)]
    if anisotropic:
        want[0][0], want[1][1] = coeffs[0][0], coeffs[1][1]
    if k0 is not None:
        want[paired][paired] = 1
    if coeffs != tuple(map(tuple, want)):
        raise ContractViolationError("Witt basis is not block-canonical")
    return basis


def arf_invariant(form):
    """Arf invariant as an exact Arf value (finite element or infinity).

    The value is the sum of Q(e) Q(f) over the symplectic pairs of
    `_symplectic_vectors(form)`, read from `_symplectic_reduction`
    without building the vectors.  A plane with B = 0 has value infinity;
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
    order = _known_order(form, [])
    if order is None:
        raise DegenerateFormError("form has a nontrivial radical")
    return order


def spaces_isomorphic(f1, f2):
    """A matrix T with Q2(T@v) = Q1(v) for all v, or None, by no search.

    The anisotropic pair of each `witt_basis`, if any, is brought to
    Q = x^2 + xy + arf_e y^2 by `_unit_pair` and f + s e for a root s of
    s^2 + s = Q(f) + arf_e.  The restricted coefficients then depend on
    the isometry class alone, so T = W2 @ W1^-1 exactly when they agree.
    """
    if f1.field != f2.field:
        raise FieldMismatchError("forms live over different fields")
    if f1.dim != f2.dim:
        raise DimMismatchError("forms have different dimensions")
    field = f1.field
    w1, w2 = witt_basis(f1), witt_basis(f2)
    for form, basis in ((f1, w1), (f2, w2)):
        if len(basis) > 1 and form._q(basis[0]) and form._b(*basis[:2]):
            e, f = _unit_pair(form, *basis[:2])
            s = field.solve_quadratic(form._q(f) ^ field.arf_e())[0]
            basis[:2] = e, linalg.combine(field, (1, s), (f, e))
    if f1.restrict(w1).coeffs != f2.restrict(w2).coeffs:
        return None
    # transpose, unlike from_columns, takes the empty basis of dim 0
    return linalg.mat_mul(field, linalg.transpose(w2),
                          linalg.mat_inv(field, linalg.transpose(w1)))


def _plane_isometries(form):
    """The matrices [u | v] of O(Q) for a plane with B non-degenerate.

    With Q = a x^2 + b xy + c y^2, [u | v] preserves Q exactly when
    Q(u) = a, Q(v) = c and B(u, v) = b; the last makes u and v
    independent.  The first columns are the level set Q(u) = a, one
    quadratic in u1 per u0.  The second column lies on the line
    B(u, v) = b, which is u0 v1 + u1 v0 = 1 through a point w = (0, 1/u0)
    or (1/u1, 0), along u itself (B(u, u) = 0).  On it Q(w + t u) =
    Q(w) + a t^2 + b t, so Q(v) = c is one more quadratic,
    a t^2 + b t + Q(w) + c = 0, solved by `GF2Field.quadratic_roots`.
    The group is dihedral of order 2(q - eps) (Taylor 1992, ch. 11).
    """
    field = form.field
    mul, inv = field.mul, field.inv
    (a, b), (_, c) = form.coeffs
    for u0, u1 in _level_set(form, (0, 0), [(1, 0), (0, 1)], a):
        if u0:
            w = (0, inv(u0))
            rhs = mul(c, mul(w[1], w[1])) ^ c
        elif u1:
            w = (inv(u1), 0)
            rhs = mul(a, mul(w[0], w[0])) ^ c
        else:
            continue  # u = 0 pairs to zero with every v
        for t in field.quadratic_roots(a, b, rhs):
            yield ((u0, w[0] ^ mul(t, u0)), (u1, w[1] ^ mul(t, u1)))


def enumerate_isometries(form, fixed=None):
    """Every invertible matrix preserving Q and fixing `fixed` pointwise.

    Where theory gives the order, the group is returned at once with
    that order and lists its elements on first read (see `IsomGroup`).
    With nothing fixed and a trivial radical it is |O(Q)|, as
    `isometry_order` gives it.  With one fixed vector k and B
    non-degenerate it is the stabilizer of k, whose orbit under O(Q) is
    every nonzero vector with Q = Q(k) (Witt's theorem), so the order is
    |O(Q)| / N(Q(k)); in dimension 2m, with eps = +1 exactly for Arf
    class 0, N(0) = q^(2m-1) + eps (q^m - q^(m-1)) - 1 and
    N(c) = q^(2m-1) - eps q^(m-1) for c != 0 (Taylor, The Geometry of
    the Classical Groups, 1992, ch. 11).  Every other input is listed
    at call time.  A listing is where the guards sit: it refuses an
    n*dim above ISOMETRY_GUARD before any work, and with nothing fixed
    it also refuses a closed-form order above ISOMETRY_ORDER_GUARD,
    except on a plane, which `_plane_isometries` builds column by
    column.  Every other listing is the search.
    """
    field = form.field
    anchors = linalg.independent_subset(
        field, [form.check_vec(v) for v in (fixed or [])])
    order = _known_order(form, anchors)

    def listing():
        if field.n * form.dim > ISOMETRY_GUARD:
            raise TooLargeError(
                "n*dim = %d exceeds enumeration guard %d"
                % (field.n * form.dim, ISOMETRY_GUARD))
        if not anchors and order is not None:
            if form.dim == 2:
                return _plane_isometries(form)
            if order > ISOMETRY_ORDER_GUARD:
                raise TooLargeError(
                    "isometry group of order %d exceeds enumeration guard %d"
                    % (order, ISOMETRY_ORDER_GUARD))
        return _isometry_search(form, anchors)

    if order is None:
        return IsomGroup(field, listing(), form=form)
    return IsomGroup(field, listing, form=form, order=order)


def _known_order(form, anchors):
    """The order of the isometries fixing the independent anchors where
    theory gives it, else None: |O(Q)| for no anchor and a trivial
    radical (see `isometry_order`), |O(Q)| / N(Q(k)) for one anchor k
    and B non-degenerate (see `enumerate_isometries`)."""
    if len(anchors) > 1:
        return None
    field = form.field
    _, arf_sum, rest, radical_dim = _symplectic_reduction(form)
    if radical_dim or (anchors and rest):
        return None
    q = field.order
    m, odd = divmod(form.dim, 2)
    order = 1
    for i in range(1, m + odd):
        order *= q ** (2 * i) - 1
    if odd:
        return q ** (m * m) * order
    if m == 0:
        return 1
    eps = -1 if field.trace(arf_sum) else 1
    order *= 2 * q ** (m * (m - 1)) * (q ** m - eps)
    if not anchors:
        return order
    if form._q(anchors[0]):
        return order // (q ** (2 * m - 1) - eps * q ** (m - 1))
    return order // (q ** (2 * m - 1) + eps * (q ** m - q ** (m - 1)) - 1)
