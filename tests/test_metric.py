"""Tests for line isometry groups, translation invariants, and distance."""

import itertools

import pytest

from char2conf import linalg
from char2conf.confgeo import (
    GEOMETRY_DIM, ProjPoint, build_geometry, classify_cycle, dependent_line,
    projective_reps,
)
from char2conf.errors import (
    AmbiguousDistanceError, IdealLineError, NotConnectedError,
    NotIndependentError, PreconditionViolatedError, TooLargeError,
)
from char2conf.gf2field import Arf, GF2Field
from char2conf.metric import (
    DEGENERATE_PAIR, ORTHOGONAL, distance, lambda_scalar,
    line_group, oriented_distance, ort_group, ort_plus, point_orbit,
    translation_invariant,
)
from char2conf.quadspace import (
    IsomGroup, QuadraticForm, arf_invariant, enumerate_isometries,
)

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
    assert grp.fingerprint() == (8, ((1, 1), (2, 7)))


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
        assert all(lambda_scalar(grp.form, m) == 0 for m in plus.elements)


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
    assert lambda_scalar(form, ident) == 0
    # by hand: M^T A M = [[1,0],[1,1]], difference from A is the Gram matrix
    assert lambda_scalar(form, swap) == 1


@pytest.mark.parametrize("field,alpha", [(GF2, Arf.finite(1)),
                                         (GF4, Arf.finite(0))])
def test_lambda_scalar_is_a_homomorphism(field, alpha):
    grp = ort_group(field, alpha)
    for a in grp:
        for b in grp:
            lam = lambda_scalar(grp.form, linalg.mat_mul(field, a, b))
            assert lam == (lambda_scalar(grp.form, a)
                           ^ lambda_scalar(grp.form, b))
            assert lam in (0, 1)


def test_lambda_scalar_rejects_zero_pairing():
    form = QuadraticForm(GF2, [[1, 0], [0, 1]])
    with pytest.raises(PreconditionViolatedError):
        lambda_scalar(form, ((1, 0), (0, 1)))


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
            assert set(lg.ambient.values()) == set(brute.elements)
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
    assert lg.fingerprint() == og.fingerprint() == (6, ((1, 1), (2, 3), (3, 2)))


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
        assert set(lg.ambient.values()) == set(brute.elements)
        for x in lg:
            mx = lg.ambient_matrix(x)
            assert linalg.mat_mul(GF2, mx, mx) == ident6
            for y in lg:
                assert linalg.mat_mul(GF2, mx, lg.ambient_matrix(y)) \
                    == lg.ambient_matrix(lg.mul(x, y))


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
        tr = translation_invariant(g, ell)
        assert GF2.trace(lg.alpha.value) == GF2.trace(tr.value) ^ shift


def test_line_group_errors():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    with pytest.raises(PreconditionViolatedError):
        line_group(g, g.omega)  # pairs with L, not a line
    gpar = build_geometry(GF2, Arf.finite(1), Arf.infinity())
    with pytest.raises(NotIndependentError):
        line_group(gpar, dependent_line(gpar))


def test_translation_invariant_real_line_is_base_value():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    q0 = g.form.q(g.omega.rep)
    q2 = g.form.q(g.l.rep)
    b2 = g.form.b(g.omega.rep, g.l.rep)
    base = GF2.div(GF2.mul(q2, q0), GF2.mul(b2, b2))
    real = geometry_lines(g, real=True)
    assert len(real) == 4
    for ell in real:
        assert translation_invariant(g, ell) == Arf.finite(base)


def test_translation_invariant_infinite_when_omega_l_unpaired():
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    for ell in geometry_lines(g):
        assert translation_invariant(g, ell).is_infinity


def test_translation_invariant_gf4_closed_form_sweep():
    # the closed-form vs projection assertion runs inside the call; the
    # sweep covers 16 real and 48 virtual lines
    g = build_geometry(GF4, Arf.finite(E4), Arf.finite(E4))
    lines = geometry_lines(g)
    assert len(lines) == 64
    reals = 0
    for ell in lines:
        tr = translation_invariant(g, ell)
        assert GF4.arf_normalize(tr) == "e"
        if classify_cycle(g, ell).real:
            reals += 1
    assert reals == 16


def test_translation_invariant_errors():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    with pytest.raises(IdealLineError):
        translation_invariant(g, (0, 1, 0, 0, 0, 1))
    with pytest.raises(PreconditionViolatedError):
        translation_invariant(g, g.omega)
    gpar = build_geometry(GF2, Arf.finite(1), Arf.infinity())
    with pytest.raises(NotIndependentError):
        translation_invariant(gpar, dependent_line(gpar))


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


def test_distance_symmetry():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    ell = (1, 0, 0, 1, 0, 1)
    pts = point_orbit(g, ell, 0)
    for p1 in pts:
        for p2 in pts:
            assert distance(g, ell, p1, p2) == distance(g, ell, p2, p1)
    assert distance(g, ell, pts[0], pts[0]).pair == (
        ort_plus(line_group(g, ell)).identity(),)


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


def test_oriented_distance_synthetic_failure_modes():
    # valid GF(2)/GF(4) geometries never produce these on their own, so
    # exercise the error paths with handcrafted groups
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    ell = geometry_lines(g, real=True)[0]
    p1, p2 = point_orbit(g, ell, 0)
    ident6 = linalg.identity(GEOMETRY_DIM)
    stuck = IsomGroup(GF2, [(0, 0)], kind=DEGENERATE_PAIR,
                      alpha=Arf.infinity(), ambient={(0, 0): ident6})
    with pytest.raises(NotConnectedError):
        oriented_distance(g, ell, p1, p2, group=stuck)
    doubled = IsomGroup(GF2, [(0, 0), (1, 0)], kind=DEGENERATE_PAIR,
                        alpha=Arf.infinity(),
                        ambient={(0, 0): ident6, (1, 0): ident6})
    with pytest.raises(AmbiguousDistanceError):
        oriented_distance(g, ell, p1, p1, group=doubled)


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
