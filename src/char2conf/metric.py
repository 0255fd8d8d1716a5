"""Isometry groups of lines and cycles, and distance along a line.

The stabilizer of an independent line inside a geometry has two shapes
that line_group builds.  When the pairing restricted to the span of the
marked vectors and the line is non-degenerate, the stabilizer is the
isometry group of the complementary plane, an orthogonal group
Ort(alpha).  When the restricted pairing has a kernel (necessarily of
dimension two) on which the form is not identically zero, the
stabilizer is an elementary abelian group of order 2q whose elements are
labeled by pairs (a1, eps) in K+ x F2+.  Both carry a canonical F2-valued
homomorphism (the Dickson invariant rank(M + I) mod 2, equal to the
lambda scalar on a plane, respectively eps) whose kernel is the index-2
subgroup used to orient distances.  On some ideal lines the form
vanishes on the whole kernel plane; that stabilizer has order q and
line_group refuses it.  Both shapes carry a LineFrame, the one inverse
of the frame [v0 | basis]: it builds an element's ambient matrix only
when it is asked for, and maps a point through every element from the
point's frame coordinates, one combine per element, so
oriented_distance and point_orbit build no matrix.  The degenerate
shape reads its kernel directions off the char-2 identity
Q(x k1 + y k2) = x^2 Q(k1) + y^2 Q(k2).  Its group has the known order
2q and lists its labels only when they are read, checking each one then,
so building it costs O(1) at every degree.  line_group caches each group
on its geometry and ort_plus caches the oriented subgroup on its group,
so point_orbit, distance and oriented_distance reuse both instead of
rebuilding them; point_orbit searches only where line_group refuses.
Each refuses an invalid geometry with PreconditionViolatedError.
distance is the one distance recipe; it returns a DistanceClass, a
frozen record (see `record`) of the pair {gamma, gamma^-1} alone.  The
distance subcommand prints that pair and reads the group's kind, order
and ambient matrices from the cached ort_plus(line_group(g, ell)).
"""

from . import linalg
from .confgeo import (
    GEOMETRY_DIM, ProjPoint, _quadric_guard, as_point, classify_cycle,
    quadric_points, require_valid,
)
from .errors import (
    AmbiguousDistanceError, ContractViolationError, NotConnectedError,
    NotIndependentError, PreconditionViolatedError,
)
from .gf2field import Arf, CLASS_ZERO
from .quadspace import (
    DEGENERATE_PAIR, IsomGroup, QuadraticForm, arf_invariant,
    enumerate_isometries, isometry_guard,
)
from .record import FrozenRecord

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
    group.alpha = arf_invariant(model)
    return group


def ort_plus(group):
    """Kernel of the canonical sign homomorphism; index exactly 2.

    Orthogonal kind keeps I and every M with M + I invertible, the
    rotations (lambda scalar 0; Taylor 1992, ch. 11), and refuses a
    group that is not a plane with B non-degenerate.  Degenerate kind
    keeps the eps = 0 labels, the K+ factor.  Built once per group and
    cached on it, so repeated calls on a cached line group, including
    those inside distance and oriented_distance, return the same object.
    """
    if group._plus is None:
        group._plus = _ort_plus(group)
    return group._plus


def _ort_plus(group):
    f = group.field
    if group.kind == DEGENERATE_PAIR:
        kept = [p for p in group.elements if p[1] == 0]
    else:
        form = group.form
        if form is None or form.dim != 2 or not form.coeffs[0][1]:
            raise PreconditionViolatedError(
                "oriented subgroup needs a plane with B non-degenerate")
        # M = I, or M + I invertible: (m00 + 1)(m11 + 1) != m01 m10
        kept = [m for m in group.elements if m == ((1, 0), (0, 1))
                or f.mul(m[0][0] ^ 1, m[1][1] ^ 1) != f.mul(m[0][1], m[1][0])]
    if 2 * len(kept) != group.order:
        raise ContractViolationError("sign kernel must have index 2")
    return IsomGroup(f, kept, kind=group.kind, form=group.form,
                     alpha=group.alpha, lift=group.lift)


def line_group(g, ell):
    """Isometries of the geometry fixing Omega, P, L and ell exactly.

    The restriction of the pairing to the span of those four vectors
    decides the shape: non-degenerate gives the orthogonal group of the
    complementary plane, a two-dimensional kernel gives the
    degenerate-pair group of order 2q.  Some ideal lines have a kernel
    plane on which the form vanishes; their stabilizer has order q and
    neither shape, and PreconditionViolatedError is raised.  The group
    is built once per geometry and line and cached on the geometry,
    keyed by the line's canonical representative; later calls return
    the same object.  Refusals are not cached.
    """
    f = g.field
    ell = as_point(f, ell)
    group = g._line_groups.get(ell.rep)
    if group is None:
        group = g._line_groups[ell.rep] = _line_group(g, ell)
    return group


def _line_group(g, ell):
    require_valid(g)
    f = g.field
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


class LineFrame:
    """How the elements of a line group act on the whole space.

    Every element x fixes the vectors v0 and sends the frame's basis to
    the list images(x), so its ambient matrix is [v0 | images(x)] @ t_inv with
    t_inv = [v0 | basis]^-1.  The group's `lift` is its frame: calling
    it builds that matrix on request, and `mapper` maps one point
    through every element without building any matrix.
    """

    __slots__ = ("field", "v0", "t_inv", "images")

    def __init__(self, field, v0, basis, images):
        t_inv = linalg.mat_inv(field, linalg.from_columns(v0 + basis))
        if t_inv is None:
            raise ContractViolationError("line frame is not a basis")
        self.field = field
        self.v0 = v0
        self.t_inv = t_inv
        self.images = images

    def __call__(self, x):
        f = self.field
        return linalg.mat_mul(f, linalg.from_columns(self.v0 + self.images(x)),
                              self.t_inv)

    def mapper(self, p):
        """x -> the image of the vector p under element x.

        p's frame coordinates, t_inv @ p, are read once; its part along
        v0 is fixed by every element, so an image is one combine of that
        part with the images of the basis.
        """
        f = self.field
        coords = linalg.mat_vec(f, self.t_inv, p)
        k = len(self.v0)
        weights = (1,) + coords[k:]
        fixed = (linalg.combine(f, coords[:k], self.v0) if k
                 else linalg.zeros(len(p)))
        images = self.images
        return lambda x: linalg.combine(f, weights, [fixed] + images(x))


def _orthogonal_line_group(g, v0):
    f = g.field
    comp = g.form.perp(v0)
    if comp.dim != 2:
        raise ContractViolationError("complement of the line span must be"
                                     " a plane")
    w = list(comp.basis)
    w_form = g.form.restrict(w)
    group = enumerate_isometries(w_form)

    def images(m):
        return [linalg.combine(f, linalg.mat_col(m, j), w)
                for j in range(len(w))]

    group.alpha = arf_invariant(w_form)
    group.lift = LineFrame(f, v0, w, images)
    return group


def _degenerate_line_group(g, v0, kernel_coords):
    f = g.field
    form = g.form

    k1, k2 = (linalg.combine(f, c, v0) for c in kernel_coords)
    # B vanishes on the kernel plane, so there Q(x k1 + y k2) =
    # x^2 Q(k1) + y^2 Q(k2): Q vanishes on all of it or on one direction,
    # and e1, e2 are the first two anisotropic vectors of k2, k1, k1 + k2
    q_k1, q_k2 = form._q(k1), form._q(k2)
    if not (q_k1 or q_k2):
        raise PreconditionViolatedError(
            "no line group: the form vanishes on the whole kernel plane of"
            " the restricted pairing, so the stabilizer has order q")
    if q_k2:
        e1, e2 = k2, k1 if q_k1 else linalg.vec_add(k1, k2)
    else:
        e1, e2 = k1, linalg.vec_add(k1, k2)
    q1, q2 = form._q(e1), form._q(e2)
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

    def invariants(x1, x2):
        # what an isometry fixing v0 keeps of the images of d1 and d2
        return ([form._q(x1), form._q(x2), form._b(x1, x2)]
                + [form._b(u, x) for x in (x1, x2) for u in v0])

    want = invariants(d1, d2)

    def images(label):
        a1, eps = label
        a2 = f.div(eps ^ f.mul(a1, q1), q2)
        beta = f.sqrt(f.div(f.mul(f.mul(a1, a1), q1) ^ a1, q2))
        return [linalg.combine(f, (1, a1, beta), (d1, e1, e2)),
                linalg.combine(f, (1, beta, a2), (d2, e1, e2))]

    def listing():
        # every label is checked when the group is first listed
        pairs = [(a, e) for a in f.elements() for e in (0, 1)]
        for label in pairs:
            if invariants(*images(label)) != want:
                raise ContractViolationError("label (%d,%d) is not an"
                                             " isometry" % label)
        return pairs

    return IsomGroup(f, listing, kind=DEGENERATE_PAIR, alpha=Arf.infinity(),
                     lift=LineFrame(f, v0, [d1, d2], images),
                     order=2 * f.order)


def point_orbit(g, c, ratio):
    """Non-ideal independent points on the cycle c with a fixed ratio.

    The ratio is B(Omega,p) / B(L,p), unchanged under rescaling of p.
    Candidates are the geometry's cached quadric_points, each paired
    with P, L, c and Omega through `QuadraticForm._pairing`, one Gram
    row per fixed vector read once per call.  The isometries
    fixing Omega, P, L and c are checked to act transitively on the
    returned set.  They are the cached line_group(g, c), and the seed
    member is mapped through its frame.  Where line_group refuses c (not
    an independent line, or the order-q stabilizer) they come from the
    6-dim fixed-frame search instead, whose guard is checked before the
    quadric is scanned.  The quadric's own cap is checked before either,
    so at n >= 5 no line group is built.
    """
    require_valid(g)
    f = g.field
    c = as_point(f, c)
    if isinstance(ratio, Arf):
        if ratio.is_infinity:
            return []
        ratio = ratio.value
    f.check(ratio)
    # both paths filter the quadric, so its cap comes before any group
    _quadric_guard(f)
    try:
        group = line_group(g, c)
    except (PreconditionViolatedError, NotIndependentError):
        group = None
        isometry_guard(f, GEOMETRY_DIM)
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    pairing = g.form._pairing
    on_p, on_l, on_c, on_omega = (pairing(v) for v in (p, l, c.rep, omega))
    members = []
    for pt in quadric_points(g):
        rep = pt.rep
        if on_p(rep) != 0:
            continue
        bl = on_l(rep)
        if bl == 0 or on_c(rep) != 0:
            continue
        if f.div(on_omega(rep), bl) != ratio:
            continue
        if linalg.rank(f, [omega, p, l, c.rep, rep]) != 5:
            continue
        members.append(pt)
    if members:
        seed = members[0].rep
        if group is None:
            group = enumerate_isometries(g.form, fixed=[omega, p, l, c.rep])
            orbit = {ProjPoint(f, linalg.mat_vec(f, m, seed))
                     for m in group.elements}
        else:
            image = group.lift.mapper(seed)
            orbit = {ProjPoint(f, image(x)) for x in group.elements}
        if orbit != set(members):
            raise ContractViolationError(
                "cycle group is not transitive on the ratio set")
    return members


def _checked_line(g, ell):
    flags = classify_cycle(g, ell)
    if not (flags.hypercycle and flags.line and flags.real
            and flags.independent) or flags.ideal:
        raise PreconditionViolatedError(
            "distance needs a real, non-ideal, independent line")


def _checked_point(g, ell, pt):
    flags = classify_cycle(g, pt)
    if not (flags.hypercycle and flags.point and flags.real) \
            or flags.ideal or g.form.b(ell.rep, pt.rep) != 0:
        raise PreconditionViolatedError(
            "distance needs real non-ideal points on the line")


def oriented_distance(g, ell, p1, p2):
    """The unique positively-oriented line isometry sending p1 to p2.

    Searches ort_plus(line_group(g, ell)), both cached, for elements
    that carry p1 to p2 projectively, mapping p1 through the group's
    `LineFrame`.  No such element raises NotConnected; several raise
    AmbiguousDistance.
    """
    f = g.field
    ell = as_point(f, ell)
    p1, p2 = as_point(f, p1), as_point(f, p2)
    _checked_line(g, ell)
    _checked_point(g, ell, p1)
    _checked_point(g, ell, p2)
    group = ort_plus(line_group(g, ell))
    image = group.lift.mapper(p1.rep)
    mappers = [x for x in group.elements if ProjPoint(f, image(x)) == p2]
    if not mappers:
        raise NotConnectedError("no oriented isometry links the points")
    if len(mappers) > 1:
        raise AmbiguousDistanceError(
            "%d oriented isometries link the points" % len(mappers))
    return mappers[0]


class DistanceClass(FrozenRecord):
    """Unordered pair {gamma, gamma^-1}; a singleton for involutions.
    The elements belong to ort_plus(line_group(g, ell)), which is cached,
    so a caller that needs the group reads it from there."""

    __slots__ = _fields = ("pair",)

    def __init__(self, pair):
        object.__setattr__(self, "pair", pair)


def distance(g, ell, p1, p2):
    """Oriented distance up to group inversion."""
    group = ort_plus(line_group(g, ell))
    gamma = oriented_distance(g, ell, p1, p2)
    return DistanceClass(tuple(sorted({gamma, group.inv(gamma)})))
