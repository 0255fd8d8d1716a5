"""Degenerate quadratic spaces repaired by a minimal ambient extension.

A virtual quadratic space is a non-degenerate ambient form together with a
distinguished subspace U.  The bilinear kernel U & U-perp may be at most a
line; forms whose kernel is exactly a line embed into an ambient space with
one extra dimension, and the kernel generator k then cuts U out of the
ambient as k-perp.  Isometries of the structure are ambient isometries
fixing U-perp pointwise, and the interesting question is whether restricting
them to U reaches every isometry of the restricted form.

Only that ambient group is searched.  Iso(U) is not enumerated: the
restrictions form a subgroup of it, so they reach all of it exactly when
their number is the order of O(Q) on U, which quadspace.isometry_order
gives in closed form (Taylor, The Geometry of the Classical Groups, 1992,
ch. 11; Grove, Classical Groups and Geometric Algebra, 2002, ch. 14):
2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1) in dimension 2m, with
eps = +1 exactly for Arf class 0, and q^(m^2) prod_{i<=m} (q^(2i) - 1) in
dimension 2m + 1, where the kernel is a line on which Q is nonzero.
"""

from . import linalg
from .errors import (
    ContractViolationError, DegenerateFormError, NotEmbeddableError,
    PreconditionViolatedError, document_fields,
)
from .quadspace import (
    QuadraticForm, Subspace, enumerate_isometries, isometry_order,
)


class VirtualSpace:
    """Non-degenerate ambient form plus a distinguished subspace."""

    def __init__(self, ambient, u_basis):
        if not isinstance(ambient, QuadraticForm):
            raise TypeError("ambient must be a QuadraticForm")
        if ambient.radical().dim != 0:
            raise PreconditionViolatedError(
                "ambient form must be non-degenerate")
        self.ambient = ambient
        self.field = ambient.field
        self.u_basis = Subspace(ambient.field, ambient.dim,
                                [ambient.check_vec(v) for v in u_basis])
        self._perp = ambient.perp(self.u_basis.basis)
        # U & U-perp: the combinations of the (independent) U basis whose
        # coefficients lie in the kernel of U's own Gram matrix
        basis = self.u_basis.basis
        gram = ambient.restrict(basis).gram()
        coeffs = linalg.nullspace(self.field, list(gram))
        if len(coeffs) > 1:
            raise PreconditionViolatedError(
                "bilinear kernel of the subspace may be at most a line")
        kernel = [linalg.combine(self.field, c, basis) for c in coeffs]
        self._kernel = linalg.rref(self.field, kernel)[0]
        self._viso = None  # filled by viso_group

    def u_form(self):
        """The ambient form in coordinates over the subspace basis."""
        return self.ambient.restrict(self.u_basis.basis)

    def u_perp(self):
        return self._perp

    def omega_vector(self):
        """Generator of U & U-perp, or None when U is non-degenerate.

        When present it is the unique direction with U = omega-perp in
        the ambient space.
        """
        return self._kernel[0] if self._kernel else None

    def __eq__(self, other):
        return (isinstance(other, VirtualSpace)
                and self.ambient == other.ambient
                and self.u_basis == other.u_basis)

    def __hash__(self):
        return hash((self.ambient, self.u_basis))

    def __repr__(self):
        return "VirtualSpace(%r, %r)" % (self.ambient, self.u_basis)

    def to_json(self):
        return {"ambient": self.ambient.to_json(),
                "u_basis": [list(v) for v in self.u_basis.basis]}

    @classmethod
    def from_json(cls, doc):
        ambient, u_basis = document_fields(
            doc, "virtual space", ambient="any", u_basis="rows")
        return cls(QuadraticForm.from_json(ambient), u_basis)


def embed_minimal(u_form):
    """Smallest non-degenerate ambient form containing the given one.

    The input sits inside the ambient space as the span of the first
    dim-U coordinates.  A form whose Gram matrix is already invertible
    is its own ambient.  A form with a one-dimensional Gram kernel
    gains a single dual vector f with B(e_i, f) picked so that the
    kernel generator pairs to 1, which forces the extended Gram matrix
    to be invertible.  Wider kernels cannot be repaired by any
    extension, because the kernel meets every hyperplane of the
    extension's perp in a nonzero vector.
    """
    field = u_form.field
    d = u_form.dim
    kernel = linalg.nullspace(field, list(u_form.gram())) if d else []
    if len(kernel) >= 2:
        raise NotEmbeddableError(
            "bilinear kernel has dimension %d; only nullity <= 1 embeds"
            % len(kernel))
    standard = [tuple(row) for row in linalg.identity(d)]
    if not kernel:
        return VirtualSpace(u_form, standard)
    k = kernel[0]
    j = next(i for i, x in enumerate(k) if x)
    coeffs = [[u_form.coeffs[i][l] for l in range(d)] + [0]
              for i in range(d)]
    coeffs[j][d] = field.inv(k[j])
    coeffs.append([0] * (d + 1))
    ambient = QuadraticForm(field, coeffs)
    u_basis = [tuple(row) for row in linalg.identity(d + 1)][:d]
    return VirtualSpace(ambient, u_basis)


def viso_group(vs):
    """Ambient isometries fixing U-perp pointwise.

    Fixing U-perp forces each element to map U into itself, so every
    element restricts to an isometry of the subspace form.  The search
    runs once per space and is cached on it.
    """
    if vs._viso is None:
        vs._viso = enumerate_isometries(vs.ambient,
                                        fixed=list(vs.u_perp().basis))
    return vs._viso


def restriction_surjectivity(vs):
    """Whether restricted ambient isometries reach all of Iso(U).

    Requires the subspace form to have trivial radical.  Every element of
    viso_group is restricted to subspace coordinates, and each distinct
    restriction is checked against U's form: Q on every column and B on
    every pair of columns.  Restriction is a homomorphism, so the image
    is a subgroup of Iso(U), and it is all of Iso(U) exactly when its
    size is isometry_order(U's form), the closed-form order of O(Q)
    (Taylor, The Geometry of the Classical Groups, 1992, ch. 11; Grove,
    Classical Groups and Geometric Algebra, 2002, ch. 14):
    2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1) in dimension 2m,
    eps = +1 exactly for Arf class 0, and q^(m^2) prod_{i<=m} (q^(2i) - 1)
    in dimension 2m + 1.  Iso(U) itself is never enumerated.  The report
    also counts the elements restricting to the identity.
    """
    field = vs.field
    u_form = vs.u_form()
    try:
        full_order = isometry_order(u_form)
    except DegenerateFormError:
        raise PreconditionViolatedError(
            "restriction check requires a subspace form with trivial"
            " radical") from None
    u = vs.u_basis
    # restriction -> number of elements restricting to it; m @ v is read
    # as sum v_j (column j of m), the columns being the rows of m^T
    counts = {}
    for m in viso_group(vs):
        columns = tuple(zip(*m))
        cols = tuple(u.coords(linalg.combine(field, v, columns))
                     for v in u.basis)
        if None in cols:
            raise ContractViolationError(
                "element fixing U-perp moved U off itself")
        counts[cols] = counts.get(cols, 0) + 1
    # with a trivial radical, a map preserving Q and B is injective
    q, b, coeffs = u_form._q, u_form._b, u_form.coeffs
    pairs = [(i, j) for i in range(u.dim) for j in range(i + 1, u.dim)]
    for cols in counts:
        if any(q(c) != coeffs[i][i] for i, c in enumerate(cols)) or any(
                b(cols[i], cols[j]) != coeffs[i][j] for i, j in pairs):
            raise ContractViolationError(
                "restriction left the isometry group")
    # identity's columns are its rows
    return {
        "surjective": len(counts) == full_order,
        "kernel_order": counts.get(linalg.identity(u.dim), 0),
    }
