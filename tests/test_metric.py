"""Tests for line isometry groups, translation invariants, and distance."""

import hashlib
import itertools
import json
import random

import pytest

from char2conf import linalg, metric
from char2conf.confgeo import (
    GEOMETRY_DIM, Geometry, ProjPoint, build_geometry, classify_cycle,
    projective_reps, quadric_points,
)
from char2conf.errors import (
    AmbiguousDistanceError, ContractViolationError, NotConnectedError,
    NotIndependentError, PreconditionViolatedError, TooLargeError,
)
from char2conf.gf2field import Arf, GF2Field
from char2conf.metric import (
    DEGENERATE_PAIR, DistanceClass, LineFrame, distance, line_group,
    oriented_distance, ort_group, ort_plus, point_orbit,
)
from char2conf.oracle import _raw_sign_scalar
from char2conf.quadspace import (
    ORTHOGONAL, IsomGroup, QuadraticForm, arf_invariant,
    enumerate_isometries,
)
from grouptools import fingerprint

GF2 = GF2Field(1)
GF4 = GF2Field(2)

E4 = GF4.arf_e()


def geometry_lines(g, **want):
    """All projective reps that are independent non-ideal lines, filtered."""
    out = []
    for rep in projective_reps(g.field, GEOMETRY_DIM):
        fl = classify_cycle(g, rep)
        if not (fl.hypercycle and fl.line and fl.independent):
            continue
        if fl.ideal:
            continue
        if all(getattr(fl, k) == v for k, v in want.items()):
            out.append(rep)
    return out


def test_ort_group_orders():
    # derived by exhaustive enumeration: 2(q-1), 2(q+1), 2q
    assert ort_group(GF2, Arf.finite(0)).order == 2
    assert ort_group(GF2, Arf.finite(1)).order == 6
    assert ort_group(GF2, Arf.infinity()).order == 4
    assert ort_group(GF4, Arf.finite(0)).order == 6
    assert ort_group(GF4, Arf.finite(E4)).order == 10
    assert ort_group(GF4, Arf.infinity()).order == 8


def test_ort_group_canonical_model():
    grp = ort_group(GF4, Arf.finite(3))  # any class-e representative
    assert grp.kind == ORTHOGONAL
    assert grp.alpha == Arf.finite(E4)
    assert grp.order == 10
    hyp = ort_group(GF4, Arf.finite(0))
    assert hyp.alpha == Arf.finite(0)
    assert hyp.form.coeffs == ((0, 1), (0, 0))


def test_ort_group_degenerate_structure():
    grp = ort_group(GF4, Arf.infinity())
    assert grp.kind == DEGENERATE_PAIR
    assert grp.elements == tuple(sorted((a, e) for a in range(4)
                                        for e in (0, 1)))
    assert grp.identity() == (0, 0)
    for x in grp:
        assert grp.inv(x) == x
        assert grp.mul(x, x) == grp.identity()
        for y in grp:
            assert grp.mul(x, y) == (x[0] ^ y[0], x[1] ^ y[1])
    # elementary abelian: one identity, seven involutions
    assert fingerprint(grp) == (8, ((1, 1), (2, 7)))


@pytest.mark.parametrize("field,alpha", [
    (GF2, Arf.finite(0)), (GF2, Arf.finite(1)), (GF2, Arf.infinity()),
    (GF4, Arf.finite(0)), (GF4, Arf.finite(E4)), (GF4, Arf.infinity()),
])
def test_ort_plus_index_two(field, alpha):
    grp = ort_group(field, alpha)
    plus = ort_plus(grp)
    assert 2 * plus.order == grp.order
    if grp.kind == DEGENERATE_PAIR:
        assert all(eps == 0 for _, eps in plus.elements)
    else:
        assert all(_raw_sign_scalar(field, grp.form, m) == 0
                   for m in plus.elements)


def test_ort_plus_documented_orders():
    assert ort_plus(ort_group(GF2, Arf.finite(1))).order == 3
    assert ort_plus(ort_group(GF2, Arf.finite(0))).order == 1
    assert ort_plus(ort_group(GF4, Arf.infinity())).order == 4


def test_ort_plus_is_a_subgroup():
    plus = ort_plus(ort_group(GF4, Arf.finite(E4)))
    assert plus.order == 5
    assert plus.identity() in plus.elements
    for a in plus:
        assert plus.inv(a) in plus.elements
        for b in plus:
            assert plus.mul(a, b) in plus.elements


def test_lambda_scalar_frozen_values():
    form = ort_group(GF2, Arf.finite(1)).form
    ident = ((1, 0), (0, 1))
    swap = ((0, 1), (1, 0))
    assert _raw_sign_scalar(GF2, form, ident) == 0
    # by hand: M^T A M = [[1,0],[1,1]], difference from A is the Gram matrix
    assert _raw_sign_scalar(GF2, form, swap) == 1


@pytest.mark.parametrize("field,alpha", [(GF2, Arf.finite(1)),
                                         (GF4, Arf.finite(0))])
def test_lambda_scalar_is_a_homomorphism(field, alpha):
    grp = ort_group(field, alpha)
    for a in grp:
        for b in grp:
            lam = _raw_sign_scalar(field, grp.form,
                                   linalg.mat_mul(field, a, b))
            assert lam == (_raw_sign_scalar(field, grp.form, a)
                           ^ _raw_sign_scalar(field, grp.form, b))
            assert lam in (0, 1)


def _dickson(field, m):
    return linalg.rank(field, linalg.mat_add(m, linalg.identity(2))) % 2


def _assert_lambda_is_dickson(form):
    grp = enumerate_isometries(form)
    lams = {m: _raw_sign_scalar(form.field, form, m) for m in grp}
    assert all(lam == _dickson(form.field, m) for m, lam in lams.items())
    assert ort_plus(grp).elements == tuple(m for m in grp if lams[m] == 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_is_the_dickson_invariant_on_every_small_plane(n):
    # ort_plus keeps I and the M with M + I invertible; on a plane with
    # B != 0 these are exactly the elements with lambda scalar 0
    f = GF2Field(n)
    for a, b, c in itertools.product(range(f.order), range(1, f.order),
                                     range(f.order)):
        _assert_lambda_is_dickson(QuadraticForm(f, [[a, b], [0, c]]))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lambda_is_the_dickson_invariant_on_seeded_planes(n):
    f = GF2Field(n)
    rng = random.Random(n)
    forms = [[[0, 1], [0, 0]]] + [
        [[rng.randrange(f.order), rng.randrange(1, f.order)],
         [0, rng.randrange(f.order)]] for _ in range(12)]
    for coeffs in forms:
        _assert_lambda_is_dickson(QuadraticForm(f, coeffs))


def test_ort_plus_refuses_groups_that_are_not_planes_with_a_pairing():
    # refused before any element is read: this one's element is no matrix
    no_form = IsomGroup(GF2, ["not a matrix"])
    hh = enumerate_isometries(QuadraticForm(
        GF2, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]))
    flat = enumerate_isometries(QuadraticForm(GF2, [[1, 0], [0, 1]]))
    for grp in (no_form, hh, flat):
        with pytest.raises(PreconditionViolatedError, match="plane"):
            ort_plus(grp)


# coefficient rows of a GF(2) form with degenerate B; with Omega = e0,
# P = e2 and L = e3 the geometry has five violations
INVALID_ROWS = [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]


def test_metric_calls_refuse_an_invalid_geometry():
    g = Geometry(QuadraticForm(GF2, INVALID_ROWS), (1, 0, 0, 0, 0, 0),
                 (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))
    assert len(g.flags) == 5
    ell, pt = (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0)
    calls = [lambda: line_group(g, ell), lambda: point_orbit(g, ell, 0),
             lambda: distance(g, ell, pt, pt)]
    for call in calls:
        with pytest.raises(PreconditionViolatedError,
                           match="^bilinear form is degenerate;"):
            call()
    assert g._line_groups == {}


def test_line_group_orthogonal_matches_brute_force():
    # the GF(4) geometry has lines with both plane classes, orders 2(q+1)
    # and 2(q-1)
    for g, count, orders in (
            (build_geometry(GF2, Arf.finite(1), Arf.finite(1)), 8, {6}),
            (build_geometry(GF4, Arf.finite(0), Arf.finite(E4)), 64, {6, 10})):
        f = g.field
        lines = geometry_lines(g)
        assert len(lines) == count
        seen = set()
        for ell in lines:
            lg = line_group(g, ell)
            assert lg.kind == ORTHOGONAL
            seen.add(lg.order)
            brute = enumerate_isometries(
                g.form, fixed=[g.omega.rep, g.p.rep, g.l.rep, ell])
            assert {lg.ambient_matrix(x) for x in lg} == set(brute.elements)
            for x in lg:
                mx = lg.ambient_matrix(x)
                for v in (g.omega.rep, g.p.rep, g.l.rep, ell):
                    assert linalg.mat_vec(f, mx, v) == tuple(v)
                # the label -> matrix map is a homomorphism, not just a
                # bijection onto the right set
                for y in lg:
                    assert linalg.mat_mul(f, mx, lg.ambient_matrix(y)) \
                        == lg.ambient_matrix(lg.mul(x, y))
        assert seen == orders


def test_line_group_agrees_with_abstract_ort_group():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    lg = line_group(g, (1, 0, 0, 1, 0, 1))
    og = ort_group(GF2, lg.alpha)
    assert fingerprint(lg) == fingerprint(og) == (
        6, ((1, 1), (2, 3), (3, 2)))


def test_line_group_degenerate_matches_brute_force():
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    lines = geometry_lines(g)
    assert len(lines) == 8
    ident6 = linalg.identity(GEOMETRY_DIM)
    for ell in lines:
        lg = line_group(g, ell)
        assert lg.kind == DEGENERATE_PAIR
        assert lg.order == 4
        brute = enumerate_isometries(
            g.form, fixed=[g.omega.rep, g.p.rep, g.l.rep, ell])
        assert {lg.ambient_matrix(x) for x in lg} == set(brute.elements)
        for x in lg:
            mx = lg.ambient_matrix(x)
            assert linalg.mat_mul(GF2, mx, mx) == ident6
            for y in lg:
                assert linalg.mat_mul(GF2, mx, lg.ambient_matrix(y)) \
                    == lg.ambient_matrix(lg.mul(x, y))


def test_degenerate_line_group_checks_its_labels_on_first_listing(
        monkeypatch):
    # the group of order 2q is built without its labels; each label's
    # isometry check runs when they are first listed: with a wrong square
    # root line_group still returns, and the first read of the elements
    # fails
    g = build_geometry(GF4, Arf.infinity(), Arf.infinity())
    ell = next(rep for rep in geometry_lines(g)
               if line_group(g, rep).kind == DEGENERATE_PAIR)
    g = build_geometry(GF4, Arf.infinity(), Arf.infinity())  # empty cache
    sqrt = GF2Field.sqrt
    monkeypatch.setattr(GF2Field, "sqrt", lambda f, a: sqrt(f, a) ^ 1)
    group = line_group(g, ell)
    assert group.order == 2 * GF4.order
    with pytest.raises(ContractViolationError,
                       match=r"^label \(0,0\) is not an isometry$"):
        group.elements
    with pytest.raises(ContractViolationError, match="is not an isometry"):
        ort_plus(group)


ALL_CLASS_VALUES = [Arf.finite(1), Arf.infinity(), Arf.finite(0)]


def test_line_group_kind_dichotomy_exhaustive_gf2():
    for ap in ALL_CLASS_VALUES:
        for al in ALL_CLASS_VALUES:
            g = build_geometry(GF2, ap, al)
            b2 = g.form.b(g.omega.rep, g.l.rep)
            for ell in geometry_lines(g):
                lg = line_group(g, ell)
                v0 = [g.omega.rep, g.p.rep, g.l.rep, ell]
                kdim = len(linalg.nullspace(
                    GF2, list(g.form.restrict(v0).gram())))
                assert kdim in (0, 2)
                assert (lg.kind == DEGENERATE_PAIR) == (kdim == 2) == (b2 == 0)
                if lg.kind == DEGENERATE_PAIR:
                    assert lg.order == 4
                else:
                    assert lg.order in (2, 6)


@pytest.mark.parametrize("arf_v", [Arf.finite(0), Arf.finite(1)])
def test_line_group_alpha_class_identity(arf_v):
    # trace of the complement's Arf equals trace of the translation value
    # shifted by the trace of the whole space's Arf
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1), arf_v=arf_v)
    shift = GF2.trace(arf_invariant(g.form).value)
    assert shift == GF2.trace(arf_v.value)
    for ell in geometry_lines(g):
        lg = line_group(g, ell)
        tr = _raw_translation_invariant(g, ell)
        assert GF2.trace(lg.alpha.value) == GF2.trace(tr.value) ^ shift


def test_line_group_errors():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    with pytest.raises(PreconditionViolatedError):
        line_group(g, g.omega)  # pairs with L, not a line
    # with B(Omega, L) = 0, sqrt(Q(Omega)) L + sqrt(Q(L)) Omega is a real
    # line inside the marked span
    gpar = build_geometry(GF2, Arf.finite(1), Arf.infinity())
    omega, l = gpar.omega.rep, gpar.l.rep
    a, b = GF2.sqrt(gpar.form.q(omega)), GF2.sqrt(gpar.form.q(l))
    with pytest.raises(NotIndependentError):
        line_group(gpar, linalg.combine(GF2, (a, b), (l, omega)))


def test_translation_invariant_real_line_is_base_value():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    q0 = g.form.q(g.omega.rep)
    q2 = g.form.q(g.l.rep)
    b2 = g.form.b(g.omega.rep, g.l.rep)
    base = GF2.div(GF2.mul(q2, q0), GF2.mul(b2, b2))
    real = geometry_lines(g, real=True)
    assert len(real) == 4
    for ell in real:
        assert _raw_translation_invariant(g, ell) == Arf.finite(base)


def test_translation_invariant_infinite_when_omega_l_unpaired():
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    for ell in geometry_lines(g):
        assert _raw_translation_invariant(g, ell).is_infinity


def test_translation_invariant_gf4_closed_form_sweep():
    # the sweep covers 16 real and 48 virtual lines
    g = build_geometry(GF4, Arf.finite(E4), Arf.finite(E4))
    lines = geometry_lines(g)
    assert len(lines) == 64
    reals = closed = 0
    for ell in lines:
        tr = _raw_translation_invariant(g, ell)
        assert GF4.arf_normalize(tr) == "e"
        want = _closed_translation_invariant(g, ell)
        if want is not None:
            assert tr == want
            closed += 1
        if classify_cycle(g, ell).real:
            reals += 1
    assert reals == 16
    assert closed


def _raw_q(form, x):
    """Q(x) as the sum of c_ij x_i x_j over the coefficients, i <= j."""
    f = form.field
    total = 0
    for i, row in enumerate(form.coeffs):
        for j in range(i, len(row)):
            total ^= f.mul(row[j], f.mul(x[i], x[j]))
    return total


def _raw_b(form, x, y):
    """B(x, y) = Q(x + y) + Q(x) + Q(y)."""
    s = tuple(a ^ b for a, b in zip(x, y))
    return _raw_q(form, s) ^ _raw_q(form, x) ^ _raw_q(form, y)


def _raw_translation_invariant(g, ell):
    """Project Omega off the plane <ell, P> and take the Arf value of the
    plane <L, projection>, from raw Q and B sums."""
    f, form = g.field, g.form
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    b_pl = _raw_b(form, p, ell)
    # Omega + s P + t ell pairs to zero with P and with ell, as B(v, v) = 0
    s = f.div(_raw_b(form, omega, ell), b_pl)
    t = f.div(_raw_b(form, omega, p), b_pl)
    proj = tuple(o ^ f.mul(s, a) ^ f.mul(t, c)
                 for o, a, c in zip(omega, p, ell))
    b = _raw_b(form, l, proj)
    if b == 0:
        return Arf.infinity()
    return Arf.finite(f.div(f.mul(_raw_q(form, l), _raw_q(form, proj)),
                            f.mul(b, b)))


def _closed_translation_invariant(g, ell):
    """The translation invariant in closed form, or None where there is
    none.  With t = B(Omega, ell) / B(P, ell), b1 = B(Omega, P) and
    b2 = B(Omega, L) != 0, base = Q(L) Q(Omega) / b2^2 is shifted by
    Q(L) Q(P) t^2 / b2^2 when b1 = 0, and else, when Q(P) != 0, by
    (base / a) h(Q(P) t / b1) with a = Q(P) Q(Omega) / b1^2."""
    f, form = g.field, g.form
    omega, p, l = g.omega.rep, g.p.rep, g.l.rep
    t = f.div(_raw_b(form, omega, ell), _raw_b(form, p, ell))
    b1, b2 = _raw_b(form, omega, p), _raw_b(form, omega, l)
    q0, q1, q2 = _raw_q(form, omega), _raw_q(form, p), _raw_q(form, l)
    if b2 == 0 or (b1 and not q1):
        return None
    base = f.div(f.mul(q2, q0), f.mul(b2, b2))
    if b1 == 0:
        shift = f.div(f.mul(f.mul(q2, q1), f.mul(t, t)), f.mul(b2, b2))
    else:
        a = f.div(f.mul(q1, q0), f.mul(b1, b1))
        shift = f.mul(f.div(base, a), f.h(f.div(f.mul(q1, t), b1)))
    return Arf.finite(base ^ shift)


def test_point_orbit_elliptic_gf2():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    ell = (1, 0, 0, 1, 0, 1)
    orbit = point_orbit(g, ell, 0)
    assert sorted(p.rep for p in orbit) == [
        (0, 0, 0, 1, 0, 0), (0, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1)]
    for p in orbit:
        fl = classify_cycle(g, p)
        assert fl.hypercycle and fl.point and fl.real
        assert g.form.b(g.l.rep, p.rep) != 0
        assert g.form.b(ell, p.rep) == 0
    # virtual points on the same line form their own ratio class
    assert len(point_orbit(g, ell, 1)) == 3
    assert point_orbit(g, ell, Arf.infinity()) == []
    assert point_orbit(g, ell, Arf.finite(0)) == orbit


def test_point_orbit_guard():
    # the search guard is checked before the quadric is scanned
    for n in (3, 5):
        g = build_geometry(GF2Field(n), Arf.finite(0), Arf.finite(0))
        with pytest.raises(TooLargeError):
            point_orbit(g, g.l, 0)
        assert g._quadric is None


def test_oriented_distance_elliptic_gf2():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    for ell in geometry_lines(g, real=True):
        pts = point_orbit(g, ell, 0)
        assert len(pts) == 3
        grp = ort_plus(line_group(g, ell))
        assert grp.order == 3
        for p in pts:
            assert oriented_distance(g, ell, p, p) == grp.identity()
        for p1 in pts:
            for p2 in pts:
                d12 = oriented_distance(g, ell, p1, p2)
                d21 = oriented_distance(g, ell, p2, p1)
                assert d21 == grp.inv(d12)
                assert grp.mul(d12, d21) == grp.identity()
                for p3 in pts:
                    d13 = oriented_distance(g, ell, p1, p3)
                    d23 = oriented_distance(g, ell, p2, p3)
                    assert d13 == grp.mul(d23, d12)
        classes = {distance(g, ell, p1, p2) for p1 in pts for p2 in pts}
        assert len(classes) == 2


def test_oriented_distance_degenerate_kind():
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    ell = geometry_lines(g, real=True)[0]
    pts = point_orbit(g, ell, 0)
    assert len(pts) == 2
    grp = ort_plus(line_group(g, ell))
    assert grp.order == 2
    d = oriented_distance(g, ell, pts[0], pts[1])
    assert d == (1, 0)
    # every element is an involution, so distance classes are singletons
    assert distance(g, ell, pts[0], pts[1]).pair == ((1, 0),)
    assert distance(g, ell, pts[0], pts[0]).pair == ((0, 0),)
    # the class is its pair alone
    d = distance(g, ell, pts[0], pts[1])
    assert d == DistanceClass(d.pair) and hash(d) == hash((d.pair,))
    assert repr(d) == "DistanceClass(pair=((1, 0),))"


def test_distance_symmetry():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    ell = (1, 0, 0, 1, 0, 1)
    pts = point_orbit(g, ell, 0)
    for p1 in pts:
        for p2 in pts:
            assert distance(g, ell, p1, p2) == distance(g, ell, p2, p1)
    assert distance(g, ell, pts[0], pts[0]).pair == (
        ort_plus(line_group(g, ell)).identity(),)


def test_line_group_is_built_once_per_geometry_and_line(monkeypatch):
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    ell = (1, 0, 0, 1, 0, 1)  # an orthogonal-shape line
    calls = []

    def counting(form, fixed=None):
        calls.append(form)
        return enumerate_isometries(form, fixed=fixed)

    monkeypatch.setattr(metric, "enumerate_isometries", counting)
    # point_orbit builds the line group and caches it; distance reuses it
    pts = point_orbit(g, ell, 0)
    assert len(calls) == 1
    first = distance(g, ell, pts[0], pts[1])
    second = distance(g, ell, pts[0], pts[1])
    assert first == second
    assert len(calls) == 1
    assert line_group(g, ell) is line_group(g, ell)
    assert len(calls) == 1
    # an equal geometry keeps its own cache
    again = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    assert line_group(again, ell) is not line_group(g, ell)
    assert len(calls) == 2
    # the key is the canonical representative, not the given one
    g4 = build_geometry(GF4, Arf.finite(E4), Arf.finite(E4))
    ell4 = geometry_lines(g4, real=True)[0]
    scaled = tuple(GF4.mul(2, x) for x in ell4)
    assert line_group(g4, scaled) is line_group(g4, ell4)


def test_oriented_subgroup_is_built_once_per_line_group(monkeypatch):
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    ell = (1, 0, 0, 1, 0, 1)  # an orthogonal-shape line of order 6
    pts = point_orbit(g, ell, 0)
    calls = []
    build = metric._ort_plus

    def counting(group):
        calls.append(group)
        return build(group)

    monkeypatch.setattr(metric, "_ort_plus", counting)
    plus = ort_plus(line_group(g, ell))
    pair = (((0, 1), (1, 1)), ((1, 1), (1, 0)))
    assert distance(g, ell, pts[0], pts[1]) == DistanceClass(pair)
    assert distance(g, ell, pts[1], pts[2]) == DistanceClass(pair)
    assert calls == [line_group(g, ell)]  # one build for the line group
    assert ort_plus(line_group(g, ell)) is plus
    assert set(distance(g, ell, pts[0], pts[2]).pair) <= set(plus)
    assert len(calls) == 1


def test_oriented_distance_preconditions():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    real = geometry_lines(g, real=True)
    virtual = geometry_lines(g, real=False)
    pts = point_orbit(g, real[0], 0)
    with pytest.raises(PreconditionViolatedError):
        oriented_distance(g, virtual[0], pts[0], pts[1])
    virtual_pts = point_orbit(g, real[0], 1)
    with pytest.raises(PreconditionViolatedError):
        oriented_distance(g, real[0], virtual_pts[0], virtual_pts[1])
    other = [p for p in point_orbit(g, real[1], 0)
             if g.form.b(real[0], p.rep) != 0]
    with pytest.raises(PreconditionViolatedError):
        oriented_distance(g, real[0], pts[0], other[0])


def test_oriented_distance_synthetic_failure_modes(monkeypatch):
    # valid GF(2)/GF(4) geometries never produce these on their own, so
    # exercise the error paths with handcrafted groups
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    ell = geometry_lines(g, real=True)[0]
    p1, p2 = point_orbit(g, ell, 0)
    # every element of these groups fixes the whole space
    ident6 = list(linalg.identity(GEOMETRY_DIM))
    frame = LineFrame(GF2, [], ident6, lambda x: ident6)
    stuck = IsomGroup(GF2, [(0, 0)], kind=DEGENERATE_PAIR,
                      alpha=Arf.infinity(), lift=frame)
    monkeypatch.setattr(metric, "ort_plus", lambda group: stuck)
    with pytest.raises(NotConnectedError):
        oriented_distance(g, ell, p1, p2)
    doubled = IsomGroup(GF2, [(0, 0), (1, 0)], kind=DEGENERATE_PAIR,
                        alpha=Arf.infinity(), lift=frame)
    monkeypatch.setattr(metric, "ort_plus", lambda group: doubled)
    with pytest.raises(AmbiguousDistanceError):
        oriented_distance(g, ell, p1, p1)


def _raw_ratio_points(g, ell, ratio):
    """point_orbit's definition, by a raw PG(5,q) scan through q and b."""
    f, form = g.field, g.form
    frame = [g.omega.rep, g.p.rep, g.l.rep, ell]
    out = []
    for rep in projective_reps(f, GEOMETRY_DIM):
        bl = form.b(g.l.rep, rep)
        if (form.q(rep) == 0 and form.b(g.p.rep, rep) == 0 and bl != 0
                and form.b(ell, rep) == 0
                and f.div(form.b(g.omega.rep, rep), bl) == ratio
                and linalg.rank(f, frame + [rep]) == 5):
            out.append(rep)
    return out


def test_point_orbit_matches_raw_scan_gf4():
    g = build_geometry(GF4, Arf.finite(E4), Arf.finite(E4))
    lines = geometry_lines(g, real=True)
    assert lines
    for ell in lines:
        for ratio in (0, E4):
            got = [p.rep for p in point_orbit(g, ell, ratio)]
            assert got == _raw_ratio_points(g, ell, ratio)


def test_point_orbit_matches_raw_scan_gf8():
    # the stabilizer comes from the cached line group, so point_orbit
    # returns at n = 3; one geometry gives an orthogonal line, the other
    # (B(Omega, L) = 0) a degenerate-pair one
    f = GF2Field(3)
    e = Arf.finite(f.arf_e())
    kinds = set()
    for arf_l in (e, Arf.infinity()):
        g = build_geometry(f, e, arf_l)
        ell = _pin_cycles(g)[0][0]
        kinds.add(line_group(g, ell).kind)
        got = [p.rep for p in point_orbit(g, ell, 0)]
        assert got and got == _raw_ratio_points(g, ell, 0)
    assert kinds == {ORTHOGONAL, DEGENERATE_PAIR}


def test_repeated_distances_build_no_ambient_matrix(monkeypatch):
    # a point is mapped through the line frame, so nine distance calls on
    # one cached GF(8) line build no 6x6 matrix
    f = GF2Field(3)
    e = Arf.finite(f.arf_e())
    g = build_geometry(f, e, e)
    lines, points = _pin_cycles(g)
    ell = lines[0]
    on_line = [p for p in points if g.form.b(ell, p) == 0]
    plus = ort_plus(line_group(g, ell))
    built = []
    for name in ("mat_mul", "from_columns"):
        def counting(*args, _name=name, _real=getattr(linalg, name)):
            built.append(_name)
            return _real(*args)
        monkeypatch.setattr(linalg, name, counting)
    pairs = [distance(g, ell, on_line[0], on_line[i % len(on_line)])
             for i in range(9)]
    assert built == []
    monkeypatch.undo()
    # one element of each pair carries the first point to the second
    for i, d in enumerate(pairs):
        images = {ProjPoint(f, linalg.mat_vec(f, plus.ambient_matrix(x),
                                              on_line[0])).rep
                  for x in d.pair}
        assert on_line[i % len(on_line)] in images


def test_line_group_refuses_totally_singular_kernel_plane():
    # ideal independent lines where the form vanishes on the kernel plane
    # of the restricted pairing: their stabilizer has order q, neither
    # line_group shape
    refused = built = 0
    for ap, al, av in itertools.product(
            [Arf.finite(0), Arf.finite(1), Arf.infinity()], repeat=3):
        if av.is_infinity:
            continue
        g = build_geometry(GF2, ap, al, arf_v=av)
        for rep in projective_reps(GF2, GEOMETRY_DIM):
            fl = classify_cycle(g, rep)
            if not (fl.line and fl.independent and fl.ideal):
                continue
            try:
                line_group(g, rep)
            except PreconditionViolatedError as exc:
                assert "kernel plane" in str(exc)
                assert ap == al and not ap.is_infinity
                frame = [g.omega.rep, g.p.rep, g.l.rep, rep]
                assert enumerate_isometries(g.form, fixed=frame).order == 2
                refused += 1
            else:
                built += 1
    assert (refused, built) == (16, 192)


# -- pins for line_group, ort_plus and distance ---------------------------
# Each digest covers every real, independent, non-ideal line of one
# geometry (a seeded sample of each shape over GF(8)): the line group's
# kind, alpha, elements and ambient matrices, the ort_plus elements, and
# distance on a seeded pair of points of the line.  The values were
# recorded from a build that scanned the kernel plane for directions and
# lifted each shape on its own, so any change to a group element, a
# matrix or a distance pair shows here.

def _plain(x):
    return [_plain(y) for y in x] if isinstance(x, tuple) else x


def _pin_geometries(field, totals=("0", "e")):
    classes = ("0", "e", "inf")
    for cp, cl, cv in itertools.product(classes, classes, totals):
        yield "%d/%s/%s/%s" % (field.n, cp, cl, cv), build_geometry(
            field, field.arf_of_class(cp), field.arf_of_class(cl),
            arf_v=field.arf_of_class(cv))


def _pin_cycles(g):
    """The real, independent, non-ideal lines and the real non-ideal
    points of g, in quadric order."""
    lines, points = [], []
    for pt in quadric_points(g):
        if g.form.b(g.omega.rep, pt.rep) != 0:
            continue
        fl = classify_cycle(g, pt)
        if fl.ideal:
            continue
        if fl.line and fl.independent:
            lines.append(pt.rep)
        elif fl.point:
            points.append(pt.rep)
    return lines, points


def _pin_digest(g, lines, points, seed):
    rng = random.Random(seed)
    records = []
    for ell in lines:
        group = line_group(g, ell)
        alpha = None if group.alpha.is_infinity else group.alpha.value
        record = [list(ell), group.kind, alpha,
                  [[_plain(x), _plain(group.ambient_matrix(x))]
                   for x in group.elements],
                  _plain(ort_plus(group).elements)]
        on_line = [p for p in points if g.form.b(ell, p) == 0]
        if on_line:
            p1, p2 = rng.choice(on_line), rng.choice(on_line)
            try:
                pair = _plain(distance(g, ell, p1, p2).pair)
            except (NotConnectedError, AmbiguousDistanceError) as exc:
                pair = type(exc).__name__
            record.append([list(p1), list(p2), pair])
        records.append(record)
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pin_digests():
    out = {}
    for field in (GF2, GF4):
        for key, g in _pin_geometries(field):
            out[key] = _pin_digest(g, *_pin_cycles(g), key)
    return out


def _gf8_pin_digests():
    # a seeded handful of lines of each shape keeps the GF(8) sweep short
    f = GF2Field(3)
    out = {}
    for key, g in _pin_geometries(f, totals=("0",)):
        rng = random.Random(key)
        lines, points = _pin_cycles(g)
        by_shape = ([], [])
        for ell in lines:
            frame = [g.omega.rep, g.p.rep, g.l.rep, ell]
            kernel = linalg.nullspace(f, list(g.form.restrict(frame).gram()))
            by_shape[bool(kernel)].append(ell)
        sample = [ell for shape in by_shape
                  for ell in rng.sample(shape, min(2, len(shape)))]
        out[key] = _pin_digest(g, sample, points, key)
    return out


PINNED_LINE_DIGESTS = {
    "1/0/0/0": "e3edbe7c0e462ea8",
    "1/0/0/e": "f7e09090c2a7d89e",
    "1/0/e/0": "c49cd5ee97d26349",
    "1/0/e/e": "1763862a7cfcdbfa",
    "1/0/inf/0": "c3806a2aea0f3f61",
    "1/0/inf/e": "e29dc5acfdc0514a",
    "1/e/0/0": "1763862a7cfcdbfa",
    "1/e/0/e": "5599f56a7290a074",
    "1/e/e/0": "f2b6a6b42c6d9a54",
    "1/e/e/e": "e3edbe7c0e462ea8",
    "1/e/inf/0": "f913050551315e4f",
    "1/e/inf/e": "41f2353f513b482d",
    "1/inf/0/0": "d49b1582516b35df",
    "1/inf/0/e": "6b194c82fdc78787",
    "1/inf/e/0": "bdd6a9ac40eb102e",
    "1/inf/e/e": "d49b1582516b35df",
    "1/inf/inf/0": "ae40494c2c354388",
    "1/inf/inf/e": "9054d6dd626b0a1b",
    "2/0/0/0": "0edcb83af69e275c",
    "2/0/0/e": "575acac18fd049ae",
    "2/0/e/0": "e84a46f7693a6465",
    "2/0/e/e": "0ffe6a204a69e487",
    "2/0/inf/0": "01e7d1de6538f7c5",
    "2/0/inf/e": "94dc7b7e1416729f",
    "2/e/0/0": "ba6b0f8517b0dbb7",
    "2/e/0/e": "2545d71dc97c8352",
    "2/e/e/0": "c795e8cac904a017",
    "2/e/e/e": "a3be1653b874db7e",
    "2/e/inf/0": "b302a25cf72207e8",
    "2/e/inf/e": "3103ec030b89adf3",
    "2/inf/0/0": "884608a58e510a85",
    "2/inf/0/e": "2475b3fd7c93a0d6",
    "2/inf/e/0": "cfe31e69e0f9f586",
    "2/inf/e/e": "1547d0eddaf6a0b7",
    "2/inf/inf/0": "4a78073f9a1b79c8",
    "2/inf/inf/e": "deae47673c07d923",
}

PINNED_GF8_LINE_DIGESTS = {
    "3/0/0/0": "83f846965219fa0e",
    "3/0/e/0": "c3bcd6e32b0484c6",
    "3/0/inf/0": "e81cc528e39caa11",
    "3/e/0/0": "a39a23db48b79aee",
    "3/e/e/0": "b84a7c7ab4c767a8",
    "3/e/inf/0": "cdfb70149371d7a9",
    "3/inf/0/0": "7f3e484a1f203c8e",
    "3/inf/e/0": "1b8d55d48c23e779",
    "3/inf/inf/0": "d1508e0f8c9216c5",
}


def test_line_groups_match_pinned_values():
    assert _pin_digests() == PINNED_LINE_DIGESTS


def test_gf8_line_groups_match_pinned_values():
    assert _gf8_pin_digests() == PINNED_GF8_LINE_DIGESTS


def test_line_group_refuses_exactly_when_q_vanishes_on_the_kernel_plane():
    # every independent line, ideal or not, whose restricted pairing has
    # a kernel plane: Q is evaluated on all q^2 vectors of that plane
    refused = built = 0
    for field in (GF2, GF4):
        for _, g in _pin_geometries(field):
            for pt in quadric_points(g):
                fl = classify_cycle(g, pt)
                if not (fl.line and fl.independent):
                    continue
                frame = [g.omega.rep, g.p.rep, g.l.rep, pt.rep]
                kernel = [linalg.combine(field, c, frame)
                          for c in linalg.nullspace(
                              field, list(g.form.restrict(frame).gram()))]
                if not kernel:
                    continue
                singular = all(
                    g.form.q(linalg.combine(field, (x, y), kernel)) == 0
                    for x in field.elements() for y in field.elements())
                if singular:
                    with pytest.raises(PreconditionViolatedError,
                                       match="whole kernel plane"):
                        line_group(g, pt.rep)
                    refused += 1
                else:
                    assert line_group(g, pt.rep).kind == DEGENERATE_PAIR
                    built += 1
    assert refused and built
