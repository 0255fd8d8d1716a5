"""Degenerate quadratic spaces repaired by a minimal ambient extension.

A virtual quadratic space is a non-degenerate ambient form together with a
distinguished subspace U.  The bilinear kernel U & U-perp may be at most a
line; forms whose kernel is exactly a line embed into an ambient space with
one extra dimension, and the kernel generator k then cuts U out of the
ambient as k-perp.  Isometries of the structure are ambient isometries
fixing U-perp pointwise, and the interesting question is whether restricting
them to U reaches every isometry of the restricted form.
"""

from . import linalg
from .errors import (
    ContractViolationError, NotEmbeddableError, PreconditionViolatedError,
    document_fields,
)
from .quadspace import QuadraticForm, Subspace, enumerate_isometries


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
        if isinstance(u_basis, Subspace):
            self.u_basis = u_basis
        else:
            self.u_basis = Subspace(ambient.field, ambient.dim,
                                    [ambient.check_vec(v) for v in u_basis])
        self._perp = ambient.perp(self.u_basis.basis)
        kernel = linalg.intersect_spans(
            self.field, list(self.u_basis.basis), list(self._perp.basis))
        if len(kernel) > 1:
            raise PreconditionViolatedError(
                "bilinear kernel of the subspace may be at most a line")
        self._kernel = [tuple(k) for k in kernel]

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
    element restricts to an isometry of the subspace form.
    """
    return enumerate_isometries(vs.ambient, fixed=list(vs.u_perp().basis))


def restriction_surjectivity(vs):
    """Compare restricted ambient isometries against all of Iso(U).

    Requires the subspace form to have trivial radical, restricts every
    element of viso_group to subspace coordinates, and reports whether
    the restrictions exhaust an independently enumerated Iso(U) along
    with the number of elements restricting to the identity.
    """
    field = vs.field
    u_form = vs.u_form()
    if u_form.radical().dim != 0:
        raise PreconditionViolatedError(
            "restriction check requires a subspace form with trivial radical")
    u = vs.u_basis
    restricted = []
    for m in viso_group(vs):
        cols = [u.coords(linalg.mat_vec(field, m, v)) for v in u.basis]
        if None in cols:
            raise ContractViolationError(
                "element fixing U-perp moved U off itself")
        restricted.append(linalg.from_columns(cols))
    image = set(restricted)
    full = set(enumerate_isometries(u_form).elements)
    if not image <= full:
        raise ContractViolationError("restriction left the isometry group")
    ident = linalg.identity(u.dim)
    return {
        "surjective": image == full,
        "kernel_order": sum(1 for r in restricted if r == ident),
    }
