"""Quadratic forms over GF(2^n) and their isometries.

A form is stored as an upper-triangular coefficient matrix: entry (i,i) is
the coefficient of x_i^2 and entry (i,j), i<j, the coefficient of x_i*x_j.
The derived bilinear form B(u,v) = Q(u+v)+Q(u)+Q(v) is alternating in
characteristic 2, so the Gram matrix has zero diagonal and loses the
squares; that is why the triangular storage matters.

Validation happens once, at the boundary.  The public entry points
(`QuadraticForm.q`, `b`, `check_vec` and everything built on them)
check every coordinate and the vector length.  `_q` and `_b` are
internal: they take vectors that are already validated, such as the
representatives of `confgeo.ProjPoint` objects, and skip the checks in
the hot loops.  Both evaluate only the nonzero coefficients, which the
form precomputes at construction.
"""

from . import linalg
from .errors import (
    ContractViolationError, DegenerateBilinearError, DegenerateFormError,
    DimMismatchError, FieldMismatchError, NotDefinedError,
    NotPartialIsometryError, TooLargeError, document_fields,
)
from .gf2field import Arf, GF2Field

# enumerate_isometries refuses anything with n*dim above this
ISOMETRY_GUARD = 12

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

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, v):
        """Coefficients c with sum c_i basis_i = v, or None outside.

        Basis row i is 1 at its pivot and 0 at every other pivot, so
        c_i is the pivot entry of v; the combination confirms it.
        """
        v = tuple(v)
        c = tuple(v[p] for p in self._pivots)
        span = (linalg.combine(self.field, c, self.basis) if self.basis
                else linalg.zeros(self.ambient_dim))
        return c if span == v else None

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
        self.field = field
        self.dim = dim
        self.coeffs = coeffs
        self._gram = None
        # nonzero terms only: (i, c) for c x_i^2 and (i, j, c) for c x_i x_j
        self._squares = tuple((i, row[i]) for i, row in enumerate(coeffs)
                              if row[i])
        self._cross = tuple((i, j, row[j]) for i, row in enumerate(coeffs)
                            for j in range(i + 1, dim) if row[j])

    def check_vec(self, v):
        v = tuple(v)
        order = self.field.order
        for x in v:
            if not isinstance(x, int) or not 0 <= x < order:
                self.field.check(x)  # raises the field's own error
        if len(v) != self.dim:
            raise DimMismatchError(
                "vector length %d != dim %d" % (len(v), self.dim))
        return v

    def q(self, v):
        """Q(v) = sum over i<=j of coeffs[i][j] v_i v_j."""
        return self._q(self.check_vec(v))

    def _q(self, v):
        """Q(v) for a vector already validated against this form."""
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
        squares cancel in characteristic 2.
        """
        mul = self.field.mul
        acc = 0
        for i, j, c in self._cross:
            ui, uj, vi, vj = u[i], u[j], v[i], v[j]
            x = (mul(ui, vj) if ui and vj else 0) ^ \
                (mul(uj, vi) if uj and vi else 0)
            if x:
                acc ^= x if c == 1 else mul(c, x)
        return acc

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
        weights = [f.sqrt(self.q(k)) for k in kernel]
        vectors = [linalg.combine(f, lam, kernel)
                   for lam in linalg.nullspace(f, [tuple(weights)])]
        return Subspace(f, self.dim, vectors)

    def restrict(self, basis):
        """The form pulled back to coordinates over the given vectors."""
        basis = [self.check_vec(v) for v in basis]
        k = len(basis)
        coeffs = [[0] * k for _ in range(k)]
        for i in range(k):
            coeffs[i][i] = self.q(basis[i])
            for j in range(i + 1, k):
                coeffs[i][j] = self.b(basis[i], basis[j])
        return QuadraticForm(self.field, coeffs)

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
    value of a plane group, and groups built from a geometry carry in
    `ambient` a matrix per element realizing its action on the full
    space.  Elements are kept sorted.
    """

    def __init__(self, field, elements, kind=ORTHOGONAL, form=None,
                 alpha=None, ambient=None):
        self.field = field
        self.elements = tuple(sorted(set(elements)))
        self.kind = kind
        self.form = form
        self.alpha = alpha
        self.ambient = dict(ambient) if ambient is not None else None

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        return m in set(self.elements)

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

    def element_order(self, m):
        ident = self.identity()
        k = 1
        acc = m
        while acc != ident:
            acc = self.mul(acc, m)
            k += 1
            if k > len(self.elements) + 1:
                raise ContractViolationError("element order exceeds group order")
        return k

    def fingerprint(self):
        """(order, sorted histogram of element orders): a cheap group invariant."""
        hist = {}
        for m in self.elements:
            o = self.element_order(m)
            hist[o] = hist.get(o, 0) + 1
        return (self.order, tuple(sorted(hist.items())))

    def ambient_matrix(self, a):
        if self.ambient is None:
            raise NotDefinedError("group has no ambient realization")
        return self.ambient[a]

    def __repr__(self):
        return "IsomGroup(%s, order=%d, alpha=%s)" % (
            self.kind, self.order, self.alpha)


def _isometry_search(src, dst, domain, images, find_all):
    """Backtracking search for matrices M with Q_dst(M@v) = Q_src(v).

    domain is an independent list of source vectors and M must send
    domain[i] to images[i].  The domain is extended to a basis, and
    candidate images for each further basis vector are cut down by
    solving the linear B-pairing constraints first, then filtered by
    the Q value and independence.  Returns the matrices found (at most
    one unless find_all).
    """
    field = src.field
    dim = dst.dim
    base = linalg.extend_to_basis(field, domain, src.dim)
    gram_dst = dst.gram()
    q_target = [src.q(v) for v in base]
    b_target = [[src.b(u, v) for v in base] for u in base]

    cols = list(images)
    ech = linalg.Echelon(field)
    for c in cols:
        if not ech.add(c):
            raise NotPartialIsometryError("forced images are dependent")

    results = []

    def extend(k):
        if k == len(base):
            results.append(list(cols))
            return not find_all
        rows = [linalg.mat_vec(field, gram_dst, cols[j]) for j in range(k)]
        rhs = [b_target[j][k] for j in range(k)]
        if rows:
            solved = linalg.solve_affine(field, rows, rhs)
            if solved is None:
                return False
            particular, null_basis = solved
        else:
            particular, null_basis = linalg.zeros(dim), list(linalg.identity(dim))
        for v in linalg.affine_points(field, particular, null_basis):
            if dst.q(v) != q_target[k]:
                continue
            snap = ech.snapshot()
            if not ech.add(v):
                continue
            cols.append(v)
            stop = extend(k + 1)
            cols.pop()
            ech.restore(snap)
            if stop:
                return True
        return False

    extend(len(images))
    # M @ base[i] = cols[i] for every solution, so M = cols @ base^-1
    base_inv = linalg.mat_inv(field, linalg.from_columns(base))
    return [linalg.mat_mul(field, linalg.from_columns(cols), base_inv)
            for cols in results]


def symplectic_basis(form):
    """Pairs (e_i, f_i) with B(e_i,f_i) = 1 and all other pairings zero."""
    f = form.field
    rest = list(linalg.identity(form.dim))
    pairs = []
    while rest:
        found = None
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                if form.b(rest[i], rest[j]):
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            raise DegenerateBilinearError(
                "bilinear form degenerate: no pairing left among %d vectors"
                % len(rest))
        i, j = found
        e = rest[i]
        v = linalg.vec_scale(f, f.inv(form.b(e, rest[j])), rest[j])
        del rest[j], rest[i]
        rest = [linalg.vec_add(g,
                               linalg.vec_add(
                                   linalg.vec_scale(f, form.b(g, v), e),
                                   linalg.vec_scale(f, form.b(g, e), v)))
                for g in rest]
        pairs.append((e, v))
    for a, (e1, f1) in enumerate(pairs):
        if form.b(e1, f1) != 1:
            raise ContractViolationError("symplectic pair not normalized")
        for e2, f2 in pairs[a + 1:]:
            if any((form.b(e1, e2), form.b(e1, f2),
                    form.b(f1, e2), form.b(f1, f2))):
                raise ContractViolationError("symplectic pairs not orthogonal")
    return pairs


def arf_invariant(form):
    """Arf invariant as an exact Arf value (finite element or infinity)."""
    gram = form.gram()
    if form.dim == 2 and not any(any(row) for row in gram):
        return Arf.infinity()
    if form.radical().dim > 0:
        raise DegenerateFormError("form has a nontrivial radical")
    if form.dim % 2:
        raise DegenerateBilinearError(
            "odd dimension: no symplectic decomposition")
    acc = 0
    for e, fv in symplectic_basis(form):
        acc ^= form.field.mul(form.q(e), form.q(fv))
    return Arf.finite(acc)


def spaces_isomorphic(f1, f2):
    """A matrix T with Q2(T@v) = Q1(v) for all v, or None."""
    if f1.field != f2.field:
        raise FieldMismatchError("forms live over different fields")
    if f1.dim != f2.dim:
        raise DimMismatchError("forms have different dimensions")
    found = _isometry_search(f1, f2, [], [], find_all=False)
    return found[0] if found else None


def enumerate_isometries(form, fixed=None):
    """Every invertible matrix preserving Q and fixing `fixed` pointwise."""
    field = form.field
    if field.n * form.dim > ISOMETRY_GUARD:
        raise TooLargeError(
            "n*dim = %d exceeds enumeration guard %d"
            % (field.n * form.dim, ISOMETRY_GUARD))
    anchors = linalg.independent_subset(
        field, [form.check_vec(v) for v in (fixed or [])])
    mats = _isometry_search(form, form, anchors, anchors, find_all=True)
    return IsomGroup(field, mats, form=form)


def witt_extend(form, domain, images):
    """Extend the partial isometry domain[i] -> images[i] to the whole space.

    The partial map must be well defined and preserve Q and B; the
    extension is found by backtracking over basis completions.
    """
    if len(domain) != len(images):
        raise NotPartialIsometryError("domain and images differ in length")
    field = form.field
    domain = [form.check_vec(v) for v in domain]
    images = [form.check_vec(v) for v in images]
    dom_ind = []
    img_ind = []
    ech = linalg.Echelon(field)
    for d, im in zip(domain, images):
        if ech.add(d):
            dom_ind.append(d)
            img_ind.append(im)
        else:
            coords = linalg.coords_in(field, dom_ind, d)
            # before the first independent vector, d is zero and must map
            # to zero
            expect = (linalg.combine(field, coords, img_ind) if img_ind
                      else linalg.zeros(form.dim))
            if expect != im:
                raise NotPartialIsometryError(
                    "map is not linear on dependent domain vectors")
    if len(linalg.independent_subset(field, img_ind)) != len(img_ind):
        raise NotPartialIsometryError("images of independent vectors collapse")
    for i in range(len(dom_ind)):
        if form.q(dom_ind[i]) != form.q(img_ind[i]):
            raise NotPartialIsometryError("Q not preserved by the partial map")
        for j in range(i + 1, len(dom_ind)):
            if form.b(dom_ind[i], dom_ind[j]) != form.b(img_ind[i], img_ind[j]):
                raise NotPartialIsometryError("B not preserved by the partial map")
    found = _isometry_search(form, form, dom_ind, img_ind, find_all=False)
    if not found:
        raise ContractViolationError(
            "no Witt extension found; the extension theorem promises one "
            "whenever neither span meets the restricted radical")
    return found[0]
