"""Isometry groups of lines and cycles, and distance along a line.

The stabilizer of an independent line inside a geometry has two shapes
that line_group builds.  When the pairing restricted to the span of the
marked vectors and the line is non-degenerate, the stabilizer is the
isometry group of the complementary plane, an orthogonal group
Ort(alpha).  When the restricted pairing has a kernel (necessarily of
dimension two) on which the form is not identically zero, the
stabilizer is an elementary abelian group of order 2q whose elements are
labeled by pairs (a1, eps) in K+ x F2+.  Both carry a canonical F2-valued
homomorphism (the lambda scalar, respectively eps) whose kernel is the
index-2 subgroup used to orient distances.  On some ideal lines the form
vanishes on the whole kernel plane; that stabilizer has order q and
line_group refuses it.
"""

from dataclasses import dataclass

from . import linalg
from .confgeo import (
    GEOMETRY_DIM, ProjPoint, as_point, classify_cycle, quadric_points,
)
from .errors import (
    AmbiguousDistanceError, ContractViolationError, IdealLineError,
    NotConnectedError, NotIndependentError, PreconditionViolatedError,
)
from .gf2field import Arf, CLASS_ZERO
# ORTHOGONAL is imported so that callers can name both kinds from here
from .quadspace import (
    DEGENERATE_PAIR, ORTHOGONAL, IsomGroup, QuadraticForm, arf_invariant,
    enumerate_isometries,
)

def ort_group(field, alpha):
    """The plane isometry group with the given Arf value.

    Finite values pick a canonical model: the x*y form for the trivial
    class and x^2 + xy + e*y^2 otherwise.  The infinite value gives
    the abstract degenerate-pair group of order 2q.
    """
    if alpha.is_infinity:
        pairs = [(a, e) for a in field.elements() for e in (0, 1)]
        return IsomGroup(field, pairs, kind=DEGENERATE_PAIR, alpha=alpha)
    if field.arf_normalize(alpha) == CLASS_ZERO:
        model = QuadraticForm(field, [[0, 1], [0, 0]])
    else:
        model = QuadraticForm(field, [[1, 1], [0, field.arf_e()]])
    group = enumerate_isometries(model)
    return IsomGroup(field, group.elements, form=model,
                     alpha=arf_invariant(model))


def lambda_scalar(form, m):
    """Scalar lambda with M^T A M = A + lambda * Gram.

    A is the stored upper-triangular coefficient matrix of the form.
    The difference M^T A M + A vanishes on the diagonal for any
    isometry, so it is a multiple of the Gram matrix; the multiplier is
    solved from one nonzero Gram entry and verified everywhere.
    """
    f = form.field
    a = form.coeffs
    n = linalg.mat_add(linalg.mat_mul(f, linalg.transpose(m),
                                      linalg.mat_mul(f, a, m)), a)
    gram = form.gram()
    lam = None
    for i in range(form.dim):
        for j in range(form.dim):
            if gram[i][j]:
                lam = f.div(n[i][j], gram[i][j])
                break
        if lam is not None:
            break
    if lam is None:
        raise PreconditionViolatedError("pairing is identically zero")
    for i in range(form.dim):
        for j in range(form.dim):
            if n[i][j] != f.mul(lam, gram[i][j]):
                raise ContractViolationError(
                    "M^T A M + A is not a multiple of the pairing")
    return lam


def ort_plus(group):
    """Kernel of the canonical sign homomorphism; index exactly 2.

    Orthogonal kind keeps the elements with lambda scalar 0 and insists
    every lambda lies in {0, 1}.  Degenerate kind keeps the eps = 0
    labels, the K+ factor.
    """
    f = group.field
    if group.kind == DEGENERATE_PAIR:
        kept = [p for p in group.elements if p[1] == 0]
    else:
        kept = []
        for m in group.elements:
            lam = lambda_scalar(group.form, m)
            if f.add(lam, f.mul(lam, lam)) != 0:
                raise ContractViolationError(
                    "lambda scalar %d violates x + x^2 = 0" % lam)
            if lam == 0:
                kept.append(m)
    if 2 * len(kept) != group.order:
        raise ContractViolationError("sign kernel must have index 2")
    ambient = None
    if group.ambient is not None:
        ambient = {x: group.ambient[x] for x in kept}
    return IsomGroup(f, kept, kind=group.kind, form=group.form,
                     alpha=group.alpha, ambient=ambient)


def line_group(g, ell):
    """Isometries of the geometry fixing Omega, P, L and ell exactly.

    The restriction of the pairing to the span of those four vectors
    decides the shape: non-degenerate gives the orthogonal group of the
    complementary plane, a two-dimensional kernel gives the
    degenerate-pair group of order 2q.  Some ideal lines have a kernel
    plane on which the form vanishes; their stabilizer has order q and
    neither shape, and PreconditionViolatedError is raised.
    """
    f = g.field
    ell = as_point(f, ell)
    flags = classify_cycle(g, ell)
    if not flags.line:
        raise PreconditionViolatedError("ell must pair to zero with L")
    if not flags.independent:
        raise NotIndependentError(
            "line group is defined for independent lines only")
    v0 = [g.omega.rep, g.p.rep, g.l.rep, ell.rep]
    restricted = g.form.restrict(v0)
    kernel_coords = linalg.nullspace(f, list(restricted.gram()))
    if not kernel_coords:
        return _orthogonal_line_group(g, v0)
    if len(kernel_coords) != 2:
        raise ContractViolationError(
            "restricted pairing kernel has dimension %d, expected 0 or 2"
            % len(kernel_coords))
    return _degenerate_line_group(g, v0, kernel_coords)


def _orthogonal_line_group(g, v0):
    f = g.field
    comp = g.form.perp(v0)
    if comp.dim != 2:
        raise ContractViolationError("complement of the line span must be"
                                     " a plane")
    w = list(comp.basis)
    w_form = g.form.restrict(w)
    iso = enumerate_isometries(w_form)
    # each element fixes v0 and sends w_j to sum_i m[i][j] w_i, so its
    # ambient matrix is [v0 | images] @ [v0 | w]^-1
    t_inv = linalg.mat_inv(f, linalg.from_columns(v0 + w))
    if t_inv is None:
        raise ContractViolationError("span plus complement is not a basis")
    ambient = {}
    for m in iso.elements:
        images = [linalg.combine(f, linalg.mat_col(m, j), w)
                  for j in range(len(w))]
        ambient[m] = linalg.mat_mul(f, linalg.from_columns(v0 + images),
                                    t_inv)
    return IsomGroup(f, iso.elements, form=w_form, alpha=arf_invariant(w_form),
                     ambient=ambient)


def _degenerate_line_group(g, v0, kernel_coords):
    f = g.field
    form = g.form

    k1, k2 = (linalg.combine(f, c, v0) for c in kernel_coords)
    # two independent kernel directions with nonzero Q; the zero set of
    # Q on the kernel plane is at most one direction
    directions = [k2] + [linalg.vec_add(k1, linalg.vec_scale(f, x, k2))
                         if x else k1 for x in f.elements()]
    anisotropic = [v for v in directions if form.q(v) != 0]
    if len(anisotropic) < 2:
        raise PreconditionViolatedError(
            "no line group: the form vanishes on the whole kernel plane of"
            " the restricted pairing, so the stabilizer has order q")
    e1, e2 = anisotropic[0], anisotropic[1]
    q1, q2 = form.q(e1), form.q(e2)
    gram = form.gram()
    row1 = linalg.mat_vec(f, gram, e1)
    row2 = linalg.mat_vec(f, gram, e2)
    solved = linalg.solve_affine(f, [row1, row2], [1, 0])
    if solved is None:
        raise ContractViolationError("no dual vector for e1")
    d1 = solved[0]
    row3 = linalg.mat_vec(f, gram, d1)
    solved = linalg.solve_affine(f, [row1, row2, row3], [0, 1, 0])
    if solved is None:
        raise ContractViolationError("no dual vector for e2")
    d2 = solved[0]

    t = linalg.from_columns(v0 + [d1, d2])
    t_inv = linalg.mat_inv(f, t)
    if t_inv is None:
        raise ContractViolationError("marked span plus duals is not a basis")
    pairs = sorted((a, e) for a in f.elements() for e in (0, 1))
    ambient = {}
    for a1, eps in pairs:
        a2 = f.div(eps ^ f.mul(a1, q1), q2)
        beta = f.sqrt(f.div(f.mul(f.mul(a1, a1), q1) ^ a1, q2))
        img1 = linalg.vec_add(d1, linalg.vec_add(
            linalg.vec_scale(f, a1, e1), linalg.vec_scale(f, beta, e2)))
        img2 = linalg.vec_add(d2, linalg.vec_add(
            linalg.vec_scale(f, beta, e1), linalg.vec_scale(f, a2, e2)))
        m = linalg.mat_mul(f, linalg.from_columns(v0 + [img1, img2]), t_inv)
        cols = v0 + [img1, img2]
        src = v0 + [d1, d2]
        for i in range(GEOMETRY_DIM):
            if form.q(cols[i]) != form.q(src[i]):
                raise ContractViolationError("label (%d,%d) is not an"
                                             " isometry" % (a1, eps))
            for j in range(i + 1, GEOMETRY_DIM):
                if form.b(cols[i], cols[j]) != form.b(src[i], src[j]):
                    raise ContractViolationError("label (%d,%d) is not an"
                                                 " isometry" % (a1, eps))
        ambient[(a1, eps)] = m
    return IsomGroup(f, pairs, kind=DEGENERATE_PAIR, alpha=Arf.infinity(),
                     ambient=ambient)


def translation_invariant(g, ell):
    """Arf value controlling the translation group along a line.

    Projects Omega off the plane spanned by ell and P and returns the
    Arf value of the plane spanned by L and that projection.  Where an
    exact closed form exists (pairing of Omega with P zero, or the Arf
    value of the Omega-P plane finite nonzero) the projection result is
    checked against it.
    """
    f = g.field
    form = g.form
    ell = as_point(f, ell)
    flags = classify_cycle(g, ell)
    if not flags.hypercycle or not flags.line:
        raise PreconditionViolatedError(
            "translation invariant needs a line of the geometry")
    if form.b(g.p.rep, ell.rep) == 0:
        raise IdealLineError("line must not be ideal")
    if not flags.independent:
        raise NotIndependentError("line must be independent")
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    lvec = linalg.vec_scale(f, f.inv(form.b(p, ell.rep)), ell.rep)
    t = form.b(omega, lvec)
    b1, b2 = form.b(omega, p), form.b(omega, l)
    q0, q1, q2 = form.q(omega), form.q(p), form.q(l)
    projected = omega
    if t:
        projected = linalg.vec_add(projected, linalg.vec_scale(f, t, p))
    if b1:
        projected = linalg.vec_add(projected, linalg.vec_scale(f, b1, lvec))
    if b2 == 0:
        return Arf.infinity()
    value = f.div(f.mul(q2, form.q(projected)), f.mul(b2, b2))
    base = f.div(f.mul(q2, q0), f.mul(b2, b2))
    if b1 == 0:
        closed = base ^ f.div(f.mul(f.mul(q2, q1), f.mul(t, t)),
                              f.mul(b2, b2))
        if closed != value:
            raise ContractViolationError("closed form disagrees with the"
                                         " projection route")
    elif q1 != 0:
        arf_p = f.div(f.mul(q1, q0), f.mul(b1, b1))
        closed = base ^ f.mul(f.div(base, arf_p),
                              f.h(f.div(f.mul(q1, t), b1)))
        if closed != value:
            raise ContractViolationError("closed form disagrees with the"
                                         " projection route")
    return Arf.finite(value)


def point_orbit(g, c, ratio):
    """Non-ideal independent points on the cycle c with a fixed ratio.

    The ratio is B(Omega,p) / B(L,p), unchanged under rescaling of p.
    Candidates are the geometry's cached quadric_points.  The isometries
    fixing Omega, P, L and c are checked to act transitively on the
    returned set; they come from the search, not line_group, since some
    of these frames have the order-q stabilizer line_group refuses.
    """
    f = g.field
    c = as_point(f, c)
    if isinstance(ratio, Arf):
        if ratio.is_infinity:
            return []
        ratio = ratio.value
    f.check(ratio)
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    b = g.form._b
    members = []
    for pt in quadric_points(g):
        rep = pt.rep
        if b(p, rep) != 0:
            continue
        bl = b(l, rep)
        if bl == 0 or b(c.rep, rep) != 0:
            continue
        if f.div(b(omega, rep), bl) != ratio:
            continue
        if linalg.rank(f, [omega, p, l, c.rep, rep]) != 5:
            continue
        members.append(pt)
    if members:
        group = enumerate_isometries(g.form, fixed=[omega, p, l, c.rep])
        seed = members[0]
        orbit = {ProjPoint(f, linalg.mat_vec(f, m, seed.rep))
                 for m in group.elements}
        if orbit != set(members):
            raise ContractViolationError(
                "cycle group is not transitive on the ratio set")
    return members


def _checked_line(g, ell):
    flags = classify_cycle(g, ell)
    if not (flags.hypercycle and flags.line and flags.real
            and flags.independent) or g.form.b(g.p.rep, ell.rep) == 0:
        raise PreconditionViolatedError(
            "distance needs a real, non-ideal, independent line")


def _checked_point(g, ell, pt):
    flags = classify_cycle(g, pt)
    if not (flags.hypercycle and flags.point and flags.real) \
            or g.form.b(g.l.rep, pt.rep) == 0 \
            or g.form.b(ell.rep, pt.rep) != 0:
        raise PreconditionViolatedError(
            "distance needs real non-ideal points on the line")


def _distance_group(g, ell):
    return ort_plus(line_group(g, ell))


def oriented_distance(g, ell, p1, p2, group=None):
    """The unique positively-oriented line isometry sending p1 to p2.

    Searches the index-2 subgroup of the line group for elements whose
    ambient action carries p1 to p2 projectively.  No such element
    raises NotConnected; several raise AmbiguousDistance.
    """
    f = g.field
    ell = as_point(f, ell)
    p1, p2 = as_point(f, p1), as_point(f, p2)
    _checked_line(g, ell)
    _checked_point(g, ell, p1)
    _checked_point(g, ell, p2)
    if group is None:
        group = _distance_group(g, ell)
    mappers = [x for x in group.elements
               if ProjPoint(f, linalg.mat_vec(
                   f, group.ambient_matrix(x), p1.rep)) == p2]
    if not mappers:
        raise NotConnectedError("no oriented isometry links the points")
    if len(mappers) > 1:
        raise AmbiguousDistanceError(
            "%d oriented isometries link the points" % len(mappers))
    return mappers[0]


@dataclass(frozen=True)
class DistanceClass:
    """Unordered pair {gamma, gamma^-1}; a singleton for involutions."""
    pair: tuple


def distance(g, ell, p1, p2):
    """Oriented distance up to group inversion."""
    group = _distance_group(g, as_point(g.field, ell))
    gamma = oriented_distance(g, ell, p1, p2, group=group)
    return DistanceClass(tuple(sorted({gamma, group.inv(gamma)})))
