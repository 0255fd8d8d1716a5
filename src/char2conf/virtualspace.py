"""Degenerate quadratic spaces repaired by a minimal ambient extension.

A virtual quadratic space is a non-degenerate ambient form together with a
distinguished subspace U.  The bilinear kernel U & U-perp may be at most a
line; forms whose kernel is exactly a line embed into an ambient space with
one extra dimension, and the kernel generator k then cuts U out of the
ambient as k-perp.  Isometries of the structure are ambient isometries
fixing U-perp pointwise, and the interesting question is whether restricting
them to U reaches every isometry of the restricted form.

Both groups are counted, not listed.  Where the ambient B is
non-degenerate and U-perp is 0 or a line, as for every `embed_minimal`
output, `enumerate_isometries` gives the viso group's order from
theory, |O(V)| divided by the size of the line's orbit, and lists its
elements only when they are read.  Restriction to U is a homomorphism
whose kernel, the pointwise stabilizer of U + U-perp, is one more
`enumerate_isometries` (a small search, or theory again when U + U-perp
is a line), so the restrictions number |viso| / |kernel|.  They form a
subgroup of Iso(U), which is never enumerated either: they reach all of
it exactly when that number is the order of O(Q) on U, which
quadspace.isometry_order gives in closed form (Taylor, The Geometry of
the Classical Groups, 1992, ch. 11; Grove, Classical Groups and
Geometric Algebra, 2002, ch. 14):
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
        # U & U-perp is the kernel of U's own Gram matrix, in coordinates
        # over the (independent) U basis
        gram = self.u_form().gram()
        if len(linalg.nullspace(self.field, list(gram))) > 1:
            raise PreconditionViolatedError(
                "bilinear kernel of the subspace may be at most a line")
        self._viso = None  # filled by viso_group

    def u_form(self):
        """The ambient form in coordinates over the subspace basis."""
        return self.ambient.restrict(self.u_basis.basis)

    def u_perp(self):
        return self._perp

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

    Fixing U-perp forces each element to map (U-perp)-perp, which is U
    when the ambient B is non-degenerate, into itself.  The group is one
    `enumerate_isometries` with U-perp's basis fixed, built once per
    space and cached on it.  Where B is non-degenerate and U-perp is 0
    or a line, as for every `embed_minimal` output, its order comes from
    theory, |O(V)| or |O(V)| / N(Q(k)), and its elements are listed, and
    guarded, only when they are read; every other space's group is
    listed at once.
    """
    if vs._viso is None:
        vs._viso = enumerate_isometries(vs.ambient,
                                        fixed=list(vs.u_perp().basis))
    return vs._viso


def restriction_surjectivity(vs):
    """Whether restricted ambient isometries reach all of Iso(U).

    Requires the subspace form to have trivial radical.  Restriction to
    U is a homomorphism from viso_group whose kernel is the pointwise
    stabilizer of U + U-perp, one `enumerate_isometries` with that basis
    fixed.  Its image is a subgroup of Iso(U) of order
    |viso| / kernel_order, and it is all of Iso(U) exactly when that is
    isometry_order(U's form), the closed-form order of O(Q) (Taylor, The
    Geometry of the Classical Groups, 1992, ch. 11; Grove, Classical
    Groups and Geometric Algebra, 2002, ch. 14):
    2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1) in dimension 2m,
    eps = +1 exactly for Arf class 0, and q^(m^2) prod_{i<=m} (q^(2i) - 1)
    in dimension 2m + 1.  Neither Iso(U) nor a viso group of known
    order is listed for this; the kernel is the one search, unless
    U + U-perp is a line and its order is known too.
    A kernel order that does not divide |viso| raises
    ContractViolationError.  Where B is degenerate, which happens exactly
    for an odd-dimensional ambient, an element fixing U-perp may move U
    off itself, and then there is no restriction: each element of such a
    space's listed viso group is checked to keep U, and
    PreconditionViolatedError is raised if one does not.  That depends
    on the input: Q = xy + z^2 over GF(2) moves U = span(e1, e2), but
    x^2 + xy + y^2 + z^2 keeps it.
    """
    u_form = vs.u_form()
    try:
        full_order = isometry_order(u_form)
    except DegenerateFormError:
        raise PreconditionViolatedError(
            "restriction check requires a subspace form with trivial"
            " radical") from None
    ambient, u = vs.ambient, vs.u_basis
    viso = viso_group(vs)
    # with B degenerate, (U-perp)-perp is U plus the kernel line of B, and
    # an element fixing U-perp may move U, so every element is read
    if ambient.dim % 2 and not all(
            u.contains(linalg.mat_vec(vs.field, m, v))
            for m in viso for v in u.basis):
        raise PreconditionViolatedError(
            "no restriction: an element fixing U-perp moves U off itself")
    kernel_order = enumerate_isometries(
        ambient, fixed=list(u.basis) + list(vs.u_perp().basis)).order
    image_order, rest = divmod(viso.order, kernel_order)
    if rest:
        raise ContractViolationError(
            "restriction kernel of order %d does not divide |viso| = %d"
            % (kernel_order, viso.order))
    return {"surjective": image_order == full_order,
            "kernel_order": kernel_order}
