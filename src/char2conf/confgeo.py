"""Plane conformal geometries on a dim-6 quadratic space over GF(2^n).

A geometry is a non-degenerate six-dimensional quadratic form together
with three marked projective points Omega, P and L.  Zeros of the form
are the cycles of the geometry; pairing with P cuts out the points,
pairing with L the lines, and pairing with Omega the real cycles.  The
Arf values of the planes spanned by Omega with P and with L, read up to
the Artin-Schreier subgroup, sort geometries into a three-by-three table
of classical plane names.

Answers come back as frozen value records (see `record`): classify_cycle
returns CycleFlags, classify_geometry a GeometryClass and
transformation_class a TransformationClass.
"""

from . import linalg
from .errors import (
    BuildFailedError, ContractViolationError, DegenerateOmegaError,
    DimMismatchError, FieldMismatchError, NotDefinedError,
    PreconditionViolatedError, TooLargeError, document_fields,
)
from .gf2field import (
    Arf, GF2Field, CLASS_E, CLASS_INF, CLASS_ZERO,
)
from .quadspace import (
    QuadraticForm, Subspace, arf_invariant, symplectic_basis,
)
from .record import FrozenRecord

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
        vec = tuple(field.check(x) for x in vec)
        if not any(vec):
            raise NotDefinedError("projective points are nonzero")
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
        # the same object needs no GF2Field.__eq__ call
        if x.field is not field and x.field != field:
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


class CycleFlags(FrozenRecord):
    __slots__ = _fields = ("hypercycle", "point", "line", "ideal", "real",
                           "independent")

    def __init__(self, hypercycle, point, line, ideal, real, independent):
        object.__setattr__(self, "hypercycle", hypercycle)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "independent", independent)


class GeometryClass(FrozenRecord):
    __slots__ = _fields = ("name", "arf_p", "arf_l")

    def __init__(self, name, arf_p, arf_l):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arf_p", arf_p)
        object.__setattr__(self, "arf_l", arf_l)


class TransformationClass(FrozenRecord):
    """Equivalence descriptor under Omega -> Omega + aP + bL moves.

    kind is "exact-pair" when either Arf value is 0 or infinity (those
    members are pinned at 0 or infinity by every move, though a finite
    nonzero partner can still drift), "ratio" when both are finite
    nonzero with distinct values (the quotient rho is carried), and
    "arf-class" when rho = 1 (only the class of Arf(L) survives).
    Fields a kind does not carry are None.
    """

    __slots__ = _fields = ("kind", "arf_p", "arf_l", "rho", "arf_class")

    def __init__(self, kind, arf_p=None, arf_l=None, rho=None,
                 arf_class=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arf_p", arf_p)
        object.__setattr__(self, "arf_l", arf_l)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "arf_class", arf_class)


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
        self._span = None  # filled by _marked_span
        self._scalars = None  # filled by _marker_scalars
        self._line_groups = {}  # line rep -> IsomGroup, by metric.line_group

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
    if _marked_span(g).dim != 3:
        out.append("Omega, P, L must be linearly independent")
    if form.q(p) == 0 and form.b(omega, p) == 0:
        out.append("P needs Q(P) != 0 or a nonzero pairing with Omega")
    if form.q(l) == 0 and form.b(omega, l) == 0:
        out.append("L needs Q(L) != 0 or a nonzero pairing with Omega")
    if form.q(omega) == 0:
        out.append("Q(Omega) must be nonzero")
    # B on Omega-perp is always degenerate, so it goes unchecked: Omega-perp
    # is 5-dim and an alternating Gram matrix has even rank, or it is the
    # whole space and Omega lies in the kernel of B
    return out


def require_valid(g):
    """Raise PreconditionViolatedError naming g's violations, if any."""
    if g.flags:
        raise PreconditionViolatedError("; ".join(g.flags))


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
    # two nonzero vectors are dependent exactly when their leading-one
    # representatives agree
    if x.rep == g.omega.rep:
        raise NotDefinedError("Arf value needs x independent from Omega")
    b = g.form._b(g.omega.rep, x.rep)
    if b == 0:
        return Arf.infinity()
    num = f.mul(g.form._q(x.rep), g.form._q(g.omega.rep))
    return Arf.finite(f.div(num, f.mul(b, b)))


def _marked_span(g):
    """The span of Omega, P and L, built once per geometry."""
    if g._span is None:
        g._span = Subspace(g.field, GEOMETRY_DIM,
                           [g.omega.rep, g.p.rep, g.l.rep])
    return g._span


def _marker_scalars(g):
    """(arf_of P, arf_of L, Q(P), Q(L), B(Omega, P), B(Omega, L)),
    computed once per geometry."""
    if g._scalars is None:
        form = g.form
        omega, p, l = g.omega.rep, g.p.rep, g.l.rep
        g._scalars = (arf_of(g, g.p), arf_of(g, g.l), form._q(p), form._q(l),
                      form._b(omega, p), form._b(omega, l))
    return g._scalars


def classify_cycle(g, c):
    c = as_point(g.field, c)
    form = g.form
    point = form._b(g.p.rep, c.rep) == 0
    line = form._b(g.l.rep, c.rep) == 0
    # Omega, P, L and c are independent exactly when the first three are
    # and c lies outside their span
    span = _marked_span(g)
    return CycleFlags(
        hypercycle=form._q(c.rep) == 0,
        point=point,
        line=line,
        ideal=point and line,
        real=form._b(g.omega.rep, c.rep) == 0,
        independent=span.dim == 3 and not span.contains(c.rep),
    )


def incident(g, c1, c2):
    c1 = as_point(g.field, c1)
    c2 = as_point(g.field, c2)
    return g.form._b(c1.rep, c2.rep) == 0


def classify_geometry(g):
    require_valid(g)
    a_p, a_l = _marker_scalars(g)[:2]
    cp, cl = g.field.arf_normalize(a_p), g.field.arf_normalize(a_l)
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
    truth; the verification module compares the two paths.  The source
    geometry's `_marker_scalars` are computed once and reused by every
    move.
    """
    f = g.field
    f.check(alpha)
    f.check(beta)
    form = g.form
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    new_omega = linalg.combine(f, (1, alpha, beta), (omega, p, l))
    if form.q(new_omega) == 0:
        raise DegenerateOmegaError("replacement needs Q(new Omega) != 0")
    moved = Geometry(form, new_omega, g.p, g.l)
    a_p, a_l, q1, q2, b1, b2 = _marker_scalars(g)

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
    require_valid(g)
    f = g.field
    a_p, a_l = _marker_scalars(g)[:2]
    if any(a.is_infinity or a.value == 0 for a in (a_p, a_l)):
        return TransformationClass("exact-pair", arf_p=a_p, arf_l=a_l)
    rho = f.div(a_l.value, a_p.value)
    if rho != 1:
        return TransformationClass("ratio", rho=rho)
    return TransformationClass("arf-class",
                               arf_class=f.arf_normalize(a_l))


def quadric_points(g):
    """Sorted canonical representatives on which the form vanishes.

    PG(5,q) is walked line by line: every point other than e5 lies on
    exactly one line p + t e5 with p a leading-one representative of
    its first five coordinates and last coordinate 0.  On that line
    Q(p + t e5) = a t^2 + b t + c with a = Q(e5), c = Q(p) and
    b = B(p, e5) = Q(p + e5) + c + a, so two evaluations of Q give the
    line's quadratic.  Its zeros, taken in increasing t, depend on
    (b, c) alone and are solved once per distinct pair, with at most
    one `solve_quadratic`; e5 itself comes last.  That is the
    lexicographic order of `projective_reps(field, 6)`, from
    2(q^5 - 1)/(q - 1) + 1 calls of `QuadraticForm.q` instead of one
    per point.  The walk runs once per geometry and is cached on it;
    every call returns a fresh list.
    """
    if g._quadric is None:
        f = g.field
        _quadric_guard(f)
        g._quadric = tuple(ProjPoint._trusted(f, v)
                           for v in _quadric_reps(g.form))
    return list(g._quadric)


def _quadric_guard(field):
    """Raise TooLargeError unless `quadric_points` may walk PG(5, field)."""
    if GEOMETRY_DIM * field.n > 24:
        raise TooLargeError("quadric enumeration capped at 2^24 vectors")


def _quadric_reps(form):
    """The zeros of `quadric_points`, as leading-one tuples in order."""
    f = form.field
    q = form.q
    e5 = (0,) * (GEOMETRY_DIM - 1) + (1,)
    a = q(e5)
    roots = {}  # (b, c) -> the zeros t of a t^2 + b t + c, increasing
    for head in projective_reps(f, GEOMETRY_DIM - 1):
        p = head + (0,)
        c = q(p)
        b = q(head + (1,)) ^ c ^ a
        ts = roots.get((b, c))
        if ts is None:
            ts = roots[b, c] = _line_roots(f, a, b, c)
        for t in ts:
            yield head + (t,) if t else p
    if not a:
        yield e5


def _line_roots(f, a, b, c):
    """The t with a t^2 + b t + c = 0, in increasing order."""
    mul, inv = f.mul, f.inv
    if a and b:
        # t = (b/a) s with s^2 + s = a c / b^2; the roots differ by b/a
        scale = mul(b, inv(a))
        roots = f.solve_quadratic(mul(c, inv(mul(b, scale))))
        if roots is None:
            return ()
        t = mul(scale, roots[0])
        return (t, t ^ scale) if t < t ^ scale else (t ^ scale, t)
    if a:
        return (f.sqrt(mul(c, inv(a))),)
    if b:
        return (mul(c, inv(b)),)
    return () if c else f.elements()


def normal_form(g):
    """Basis change splitting the form into three orthogonal B-pairs.

    Hunts for a cycle pair (ell, p) with ell a line not through P and p
    a point not on L, touching each other; the planes they span with P
    and L become two hyperbolic planes and the remaining plane is
    normalized symplectically (and fully hyperbolized whenever its Arf
    class is zero, which for total class zero makes all three planes
    genuine hyperbolic planes).  Returns None when no pair exists.

    The candidates are the cached `quadric_points`.  Each is paired with
    L and with P through `QuadraticForm._pairing`, which reads each
    marker's Gram row once, so a pairing costs one product per
    coordinate where both the row and the candidate are nonzero.
    """
    require_valid(g)
    f = g.field
    form = g.form
    p_rep, l_rep = g.p.rep, g.l.rep
    quadric = quadric_points(g)
    # lines not through P and points not on L, from one pairing of each
    # point with L and with P
    on_l, on_p = form._pairing(l_rep), form._pairing(p_rep)
    ells, ps = [], []
    for c in quadric:
        bl, bp = on_l(c.rep), on_p(c.rep)
        if not bl and bp:
            ells.append(c.rep)
        elif not bp and bl:
            ps.append(c.rep)
    b = form._b
    chosen = next(((ell, pt) for ell in ells for pt in ps
                   if b(ell, pt) == 0), None)
    if chosen is None:
        return None
    ell, pt = chosen

    def hyperbolic_pair(iso, other):
        # iso is isotropic and pairs nontrivially with other; return a
        # basis of their span with Q = 0, Q = 0 and pairing 1
        b = form.b(iso, other)
        fixed = linalg.combine(f, (1, f.div(form.q(other), b)), (other, iso))
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
            w = linalg.combine(f, (t, 1), (u, v))
            w1, w2 = hyperbolic_pair(w, u)
    cols = [e1, f1, e2, f2, w1, w2]
    if linalg.rank(f, cols) != GEOMETRY_DIM:
        raise ContractViolationError("normal form basis is not a basis")
    return linalg.from_columns(cols)
