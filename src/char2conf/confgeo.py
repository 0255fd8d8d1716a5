"""Plane conformal geometries on a dim-6 quadratic space over GF(2^n).

A geometry is a non-degenerate six-dimensional quadratic form together
with three marked projective points Omega, P and L.  Zeros of the form
are the cycles of the geometry; pairing with P cuts out the points,
pairing with L the lines, and pairing with Omega the real cycles.  The
Arf values of the planes spanned by Omega with P and with L, read up to
the Artin-Schreier subgroup, sort geometries into a three-by-three table
of classical plane names.
"""

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import (
    BuildFailedError, ContractViolationError, DegenerateOmegaError,
    DimMismatchError, FieldMismatchError, NotDefinedError,
    PreconditionViolatedError, TooLargeError, document_fields,
)
from .gf2field import (
    Arf, GF2Field, CLASS_E, CLASS_INF, CLASS_ZERO,
)
from .quadspace import QuadraticForm, arf_invariant, symplectic_basis

GEOMETRY_DIM = 6

CLASS_TABLE = {
    (CLASS_E, CLASS_E): "elliptic",
    (CLASS_E, CLASS_INF): "parabolic",
    (CLASS_E, CLASS_ZERO): "hyperbolic",
    (CLASS_INF, CLASS_E): "dual-parabolic",
    (CLASS_INF, CLASS_INF): "laguerre-galilei",
    (CLASS_INF, CLASS_ZERO): "dual-minkowski",
    (CLASS_ZERO, CLASS_E): "dual-hyperbolic",
    (CLASS_ZERO, CLASS_INF): "minkowski",
    (CLASS_ZERO, CLASS_ZERO): "anti-de-sitter",
}


class ProjPoint:
    """Projective point stored as its leading-one representative."""

    def __init__(self, field, vec):
        vec = tuple(int(x) for x in vec)
        if not any(vec):
            raise NotDefinedError("projective points are nonzero")
        for x in vec:
            field.check(x)
        lead = next(x for x in vec if x)
        if lead != 1:
            s = field.inv(lead)
            vec = tuple(field.mul(s, x) for x in vec)
        self.field = field
        self.rep = vec

    @classmethod
    def _trusted(cls, field, rep):
        """A point from a tuple already known to be a leading-one
        representative with coordinates in the field."""
        point = cls.__new__(cls)
        point.field = field
        point.rep = rep
        return point

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field, self.rep))

    def __lt__(self, other):
        return self.rep < other.rep

    def __repr__(self):
        return "ProjPoint(%r)" % (self.rep,)


def as_point(field, x):
    """Coerce a raw vector to a ProjPoint of the given field.

    Cycles of a geometry have GEOMETRY_DIM coordinates.  Checking that
    here, together with the coordinate checks of ProjPoint, is what lets
    the geometry code evaluate the form on point representatives
    without validating them again.
    """
    if isinstance(x, ProjPoint):
        if x.field != field:
            raise FieldMismatchError("point belongs to %r" % (x.field,))
    else:
        x = ProjPoint(field, x)
    if len(x.rep) != GEOMETRY_DIM:
        raise DimMismatchError("a cycle has %d coordinates, got %d"
                               % (GEOMETRY_DIM, len(x.rep)))
    return x


def projective_reps(field, dim):
    """All leading-one representatives, in lexicographic order."""
    from itertools import product
    for lead in range(dim):
        head = (0,) * lead + (1,)
        for tail in product(field.elements(), repeat=dim - lead - 1):
            yield head + tail


@dataclass(frozen=True)
class CycleFlags:
    hypercycle: bool
    point: bool
    line: bool
    ideal: bool
    real: bool
    independent: bool


@dataclass(frozen=True)
class GeometryClass:
    name: str
    arf_p: str
    arf_l: str


@dataclass(frozen=True)
class TransformationClass:
    """Equivalence descriptor under Omega -> Omega + aP + bL moves.

    kind is "exact-pair" when either Arf value is 0 or infinity (those
    members are pinned at 0 or infinity by every move, though a finite
    nonzero partner can still drift), "ratio" when both are finite
    nonzero with distinct values (the quotient rho is carried), and
    "arf-class" when rho = 1 (only the class of Arf(L) survives).
    """
    kind: str
    arf_p: Optional[Arf] = None
    arf_l: Optional[Arf] = None
    rho: Optional[int] = None
    arf_class: Optional[str] = None


class Geometry:
    """Dim-6 non-degenerate form with marked points Omega, P, L."""

    def __init__(self, form, omega, p, l):
        if form.dim != GEOMETRY_DIM:
            raise DimMismatchError("geometry needs a dim-%d form, got %d"
                                   % (GEOMETRY_DIM, form.dim))
        self.form = form
        self.field = form.field
        self.omega = as_point(self.field, omega)
        self.p = as_point(self.field, p)
        self.l = as_point(self.field, l)
        self._violations = None
        self._quadric = None  # filled by quadric_points

    @property
    def flags(self):
        """Cached validation report; empty tuple means valid."""
        if self._violations is None:
            self._violations = tuple(validate_geometry(self))
        return self._violations

    def is_valid(self):
        return not self.flags

    def __eq__(self, other):
        return (isinstance(other, Geometry) and self.form == other.form
                and self.omega == other.omega and self.p == other.p
                and self.l == other.l)

    def __hash__(self):
        return hash((self.form, self.omega, self.p, self.l))

    def __repr__(self):
        return ("Geometry(%r, omega=%r, p=%r, l=%r)"
                % (self.form, self.omega.rep, self.p.rep, self.l.rep))

    def to_json(self):
        return {"field": self.field.to_json(), "form": self.form.to_json(),
                "omega": list(self.omega.rep), "P": list(self.p.rep),
                "L": list(self.l.rep)}

    @classmethod
    def from_json(cls, doc):
        field_doc, form_doc, omega, p, l = document_fields(
            doc, "geometry", field="any", form="any", omega="ints", P="ints",
            L="ints")
        field = GF2Field.from_json(field_doc)
        form = QuadraticForm.from_json(form_doc)
        if form.field != field:
            raise FieldMismatchError("form field disagrees with geometry field")
        return cls(form, omega, p, l)


def validate_geometry(g):
    """Re-derive every structural requirement; returns violations found."""
    out = []
    form, f = g.form, g.field
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    # a trivial Gram kernel rules out a radical
    if linalg.nullspace(f, list(form.gram())):
        out.append("bilinear form is degenerate")
        if form.radical().dim != 0:
            out.append("quadratic form is degenerate")
    if form.b(p, l) != 0:
        out.append("P and L must pair to zero")
    if linalg.rank(f, [omega, p, l]) != 3:
        out.append("Omega, P, L must be linearly independent")
    if form.q(p) == 0 and form.b(omega, p) == 0:
        out.append("P needs Q(P) != 0 or a nonzero pairing with Omega")
    if form.q(l) == 0 and form.b(omega, l) == 0:
        out.append("L needs Q(L) != 0 or a nonzero pairing with Omega")
    if form.q(omega) == 0:
        out.append("Q(Omega) must be nonzero")
    perp = form.perp([omega])
    restricted = form.restrict(perp.basis)
    if not linalg.nullspace(f, list(restricted.gram())):
        out.append("restriction to the Omega-perp hyperplane must have a"
                   " degenerate bilinear form")
    return out


def build_geometry(field, arf_p, arf_l, arf_v=None):
    """Construct a geometry realizing the requested Arf data exactly.

    Q(Omega) is set to 1.  A finite requested value a gives the marked
    point pairing 1 with Omega and Q equal to a; a requested infinity
    gives pairing 0 and Q equal to 1.  The span of the three marked
    points is then completed to six dimensions so that the total Arf
    value of the form equals arf_v (default 0), by padding with dual
    vectors and one adjustable hyperbolic-pair block.
    """
    if arf_v is None:
        arf_v = Arf.finite(0)
    if arf_v.is_infinity:
        raise BuildFailedError("a non-degenerate dim-6 form always has a"
                               " finite Arf value")
    field.check(arf_v.value)
    c01 = 0 if arf_p.is_infinity else 1
    c11 = 1 if arf_p.is_infinity else field.check(arf_p.value)
    c02 = 0 if arf_l.is_infinity else 1
    c22 = 1 if arf_l.is_infinity else field.check(arf_l.value)
    target = arf_v.value

    if c01 == 0 and c02 == 0:
        # B vanishes on the whole marked span: pair each basis vector
        # with its own dual and put the tuning value on the last one
        coeffs = [[0] * 6 for _ in range(6)]
        coeffs[0][0], coeffs[1][1], coeffs[2][2] = 1, c11, c22
        for i in range(3):
            coeffs[i][3 + i] = 1
        coeffs[5][5] = target
        form = QuadraticForm(field, coeffs)
    else:
        # the marked span has a one-dimensional bilinear kernel
        # spanned by (0, c02, c01); one dual vector repairs it
        core = [[1, c01, c02, 0],
                [0, c11, 0, 0],
                [0, 0, c22, 0],
                [0, 0, 0, 0]]
        if c01:
            core[2][3] = field.inv(c01)
        else:
            core[1][3] = field.inv(c02)
        a4 = arf_invariant(QuadraticForm(field, core)).value
        coeffs = [row + [0, 0] for row in core]
        coeffs.append([0, 0, 0, 0, 1, 1])
        coeffs.append([0, 0, 0, 0, 0, field.add(a4, target)])
        form = QuadraticForm(field, coeffs)

    g = Geometry(form, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                 (0, 0, 1, 0, 0, 0))
    if not g.is_valid():
        raise BuildFailedError("construction violated: %s"
                               % "; ".join(g.flags))
    return g


def arf_of(g, x):
    """Arf value of the plane spanned by Omega and x.

    Infinity when x pairs to zero with Omega, otherwise the finite
    value Q(x)Q(Omega) / B(x,Omega)^2; independent of the chosen
    scaling of x.
    """
    f = g.field
    x = as_point(f, x)
    if linalg.rank(f, [g.omega.rep, x.rep]) < 2:
        raise NotDefinedError("Arf value needs x independent from Omega")
    b = g.form._b(g.omega.rep, x.rep)
    if b == 0:
        return Arf.infinity()
    num = f.mul(g.form._q(x.rep), g.form._q(g.omega.rep))
    return Arf.finite(f.div(num, f.mul(b, b)))


def classify_cycle(g, c):
    c = as_point(g.field, c)
    form = g.form
    point = form._b(g.p.rep, c.rep) == 0
    line = form._b(g.l.rep, c.rep) == 0
    return CycleFlags(
        hypercycle=form._q(c.rep) == 0,
        point=point,
        line=line,
        ideal=point and line,
        real=form._b(g.omega.rep, c.rep) == 0,
        independent=linalg.rank(
            g.field, [g.omega.rep, g.p.rep, g.l.rep, c.rep]) == 4,
    )


def incident(g, c1, c2):
    c1 = as_point(g.field, c1)
    c2 = as_point(g.field, c2)
    return g.form._b(c1.rep, c2.rep) == 0


def classify_geometry(g):
    if not g.is_valid():
        raise PreconditionViolatedError("; ".join(g.flags))
    cp = g.field.arf_normalize(arf_of(g, g.p))
    cl = g.field.arf_normalize(arf_of(g, g.l))
    return GeometryClass(CLASS_TABLE[(cp, cl)], cp, cl)


def replace_omega(g, alpha, beta):
    """Swap Omega for Omega + alpha P + beta L.

    Returns the new geometry together with the predicted Arf values of
    L and of P.  Each prediction is exact and is computed per marker:

    * a marker pairing to zero with Omega keeps the value infinity
      (the pairing is untouched by the move, since P and L pair to
      zero with each other);
    * a marker with value 0 keeps it (its own Q is zero, which kills
      every correction term);
    * otherwise the marker picks up an Artin-Schreier term from its
      own scalar plus a contribution from the partner marker.  When
      the partner also has finite nonzero value that contribution is
      a scaled Artin-Schreier term; when the partner is at 0 or
      infinity it degenerates to a plain linear or square term, so
      the value genuinely moves even though this marker's partner
      stays put.

    The recomputed values on the returned geometry remain the ground
    truth; the verification module compares the two paths.
    """
    f = g.field
    f.check(alpha)
    f.check(beta)
    form = g.form
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    new_omega = omega
    if alpha:
        new_omega = linalg.vec_add(new_omega, linalg.vec_scale(f, alpha, p))
    if beta:
        new_omega = linalg.vec_add(new_omega, linalg.vec_scale(f, beta, l))
    if form.q(new_omega) == 0:
        raise DegenerateOmegaError("replacement needs Q(new Omega) != 0")
    moved = Geometry(form, new_omega, g.p, g.l)

    a_p, a_l = arf_of(g, g.p), arf_of(g, g.l)
    q1, q2 = form.q(p), form.q(l)
    b1, b2 = form.b(omega, p), form.b(omega, l)

    def predict(a_self, s_self, q_self, b_self, s_other, q_other, b_other):
        if b_self == 0:
            return a_self
        bb = f.mul(b_self, b_self)
        total = f.h(f.div(f.mul(s_self, q_self), b_self))
        if b_other == 0:
            sq = f.mul(s_other, s_other)
            total ^= f.div(f.mul(sq, f.mul(q_other, q_self)), bb)
        elif q_other == 0:
            total ^= f.div(f.mul(s_other, f.mul(b_other, q_self)), bb)
        else:
            scale = f.div(f.mul(f.mul(b_other, b_other), q_self),
                          f.mul(q_other, bb))
            total ^= f.mul(
                scale, f.h(f.div(f.mul(s_other, q_other), b_other)))
        return Arf.finite(a_self.value ^ total)

    pred_l = predict(a_l, beta, q2, b2, alpha, q1, b1)
    pred_p = predict(a_p, alpha, q1, b1, beta, q2, b2)
    return moved, pred_l, pred_p


def transformation_class(g):
    """Descriptor of the geometry up to Omega-replacement moves."""
    if not g.is_valid():
        raise PreconditionViolatedError("; ".join(g.flags))
    f = g.field
    a_p, a_l = arf_of(g, g.p), arf_of(g, g.l)
    if any(a.is_infinity or a.value == 0 for a in (a_p, a_l)):
        return TransformationClass("exact-pair", arf_p=a_p, arf_l=a_l)
    rho = f.div(a_l.value, a_p.value)
    if rho != 1:
        return TransformationClass("ratio", rho=rho)
    return TransformationClass("arf-class",
                               arf_class=f.arf_normalize(a_l))


def quadric_points(g):
    """Sorted canonical representatives on which the form vanishes.

    The scan runs once per geometry and is cached on it; every call
    returns a fresh list.
    """
    if g._quadric is None:
        f = g.field
        if 6 * f.n > 24:
            raise TooLargeError("quadric enumeration capped at 2^24 vectors")
        g._quadric = tuple(ProjPoint._trusted(f, v)
                           for v in projective_reps(f, GEOMETRY_DIM)
                           if g.form.q(v) == 0)
    return list(g._quadric)


def dependent_line(g):
    """The one real non-ideal line living inside the marked span.

    Exists exactly when Omega pairs to zero with L; it is the
    combination sqrt(Q(Omega)) L + sqrt(Q(L)) Omega.
    """
    f = g.field
    if g.form.b(g.omega.rep, g.l.rep) != 0:
        raise NotDefinedError("only defined when B(Omega, L) = 0")
    a = f.sqrt(g.form.q(g.omega.rep))
    b = f.sqrt(g.form.q(g.l.rep))
    vec = linalg.vec_add(linalg.vec_scale(f, a, g.l.rep),
                         linalg.vec_scale(f, b, g.omega.rep))
    return ProjPoint(f, vec)


def normal_form(g):
    """Basis change splitting the form into three orthogonal B-pairs.

    Hunts for a cycle pair (ell, p) with ell a line not through P and p
    a point not on L, touching each other; the planes they span with P
    and L become two hyperbolic planes and the remaining plane is
    normalized symplectically (and fully hyperbolized whenever its Arf
    class is zero, which for total class zero makes all three planes
    genuine hyperbolic planes).  Returns None when no pair exists.
    """
    if not g.is_valid():
        raise PreconditionViolatedError("; ".join(g.flags))
    f = g.field
    form = g.form
    p_rep, l_rep = g.p.rep, g.l.rep
    quadric = quadric_points(g)
    b = form._b
    ells = [c.rep for c in quadric
            if b(c.rep, l_rep) == 0 and b(c.rep, p_rep) != 0]
    ps = [c.rep for c in quadric
          if b(c.rep, p_rep) == 0 and b(c.rep, l_rep) != 0]
    chosen = None
    for ell in ells:
        for pt in ps:
            if b(ell, pt) == 0:
                chosen = (ell, pt)
                break
        if chosen:
            break
    if chosen is None:
        return None
    ell, pt = chosen

    def hyperbolic_pair(iso, other):
        # iso is isotropic and pairs nontrivially with other; return a
        # basis of their span with Q = 0, Q = 0 and pairing 1
        b = form.b(iso, other)
        fixed = linalg.vec_add(other,
                               linalg.vec_scale(f, f.div(form.q(other), b),
                                                iso))
        return linalg.vec_scale(f, f.inv(b), iso), fixed

    e1, f1 = hyperbolic_pair(ell, p_rep)
    e2, f2 = hyperbolic_pair(pt, l_rep)
    comp = form.perp([e1, f1, e2, f2])
    if comp.dim != 2:
        raise ContractViolationError("complement of two hyperbolic planes"
                                     " must be a plane")
    w_form = form.restrict(comp.basis)
    (su, sv), = symplectic_basis(w_form)

    u, v = (linalg.combine(f, c, comp.basis) for c in (su, sv))
    qu, qv = form.q(u), form.q(v)
    if qu == 0:
        w1, w2 = hyperbolic_pair(u, v)
    elif qv == 0:
        w1, w2 = hyperbolic_pair(v, u)
    else:
        roots = f.solve_quadratic(f.mul(qu, qv))
        if roots is None:
            w1, w2 = u, v
        else:
            t = f.div(roots[0], qu)
            w = linalg.vec_add(linalg.vec_scale(f, t, u), v)
            w1, w2 = hyperbolic_pair(w, u)
    cols = [e1, f1, e2, f2, w1, w2]
    if linalg.rank(f, cols) != GEOMETRY_DIM:
        raise ContractViolationError("normal form basis is not a basis")
    return linalg.from_columns(cols)
