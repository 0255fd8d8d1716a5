"""Geometry construction, classification, and the Omega-replacement law."""

import itertools

import pytest

from char2conf.gf2field import GF2Field, Arf, CLASS_ZERO, CLASS_E, CLASS_INF
from char2conf.confgeo import (
    CLASS_TABLE, Geometry, ProjPoint, arf_of, build_geometry, classify_cycle,
    classify_geometry, dependent_line, incident, normal_form, projective_reps,
    quadric_points, replace_omega, transformation_class, validate_geometry,
)
from char2conf.quadspace import QuadraticForm, arf_invariant
from char2conf import linalg
from char2conf.errors import (
    BuildFailedError, DegenerateOmegaError, DimMismatchError,
    MalformedDocumentError, NotDefinedError, TooLargeError,
)

GF2 = GF2Field(1)
GF4 = GF2Field(2)


def class_values(field):
    return {CLASS_ZERO: Arf.finite(0),
            CLASS_E: Arf.finite(field.arf_e()),
            CLASS_INF: Arf.infinity()}


def test_projpoint_canonical():
    p = ProjPoint(GF4, (0, 2, 2, 0, 0, 0))
    assert p.rep == (0, 1, 1, 0, 0, 0)
    assert p == ProjPoint(GF4, (0, 3, 3, 0, 0, 0))
    with pytest.raises(NotDefinedError):
        ProjPoint(GF2, (0, 0, 0, 0, 0, 0))


def test_build_elliptic_gf2():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    assert g.is_valid()
    assert arf_of(g, g.p) == Arf.finite(1)
    assert arf_of(g, g.l) == Arf.finite(1)
    assert classify_geometry(g).name == "elliptic"


def test_build_double_infinity():
    g = build_geometry(GF2, Arf.infinity(), Arf.infinity())
    assert g.form.b(g.omega.rep, g.p.rep) == 0
    assert g.form.b(g.omega.rep, g.l.rep) == 0
    assert g.form.q(g.p.rep) == 1
    assert g.form.q(g.l.rep) == 1
    assert classify_geometry(g).name == "laguerre-galilei"


def test_build_mixed_classes_gf4():
    g = build_geometry(GF4, Arf.finite(0), Arf.finite(GF4.arf_e()))
    assert GF4.trace(arf_of(g, g.p).value) == 0
    assert GF4.trace(arf_of(g, g.l).value) == 1


def test_build_requested_total_arf():
    for field in (GF2, GF4):
        e = field.arf_e()
        g0 = build_geometry(field, Arf.finite(e), Arf.infinity())
        assert arf_invariant(g0.form) == Arf.finite(0)
        ge = build_geometry(field, Arf.finite(e), Arf.infinity(),
                            arf_v=Arf.finite(e))
        assert arf_invariant(ge.form) == Arf.finite(e)
    with pytest.raises(BuildFailedError):
        build_geometry(GF2, Arf.finite(0), Arf.finite(0), arf_v=Arf.infinity())


@pytest.mark.parametrize("field", [GF2, GF4])
def test_round_trip_all_nine_cells(field):
    values = class_values(field)
    for cp, cl in itertools.product(values, repeat=2):
        g = build_geometry(field, values[cp], values[cl])
        assert validate_geometry(g) == []
        got = classify_geometry(g)
        assert (got.arf_p, got.arf_l) == (cp, cl)
        assert got.name == CLASS_TABLE[(cp, cl)]


def test_validate_catches_dependence_and_pairing():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    same = Geometry(g.form, g.omega, g.p, g.p)
    assert any("independent" in v for v in same.flags)
    crossed = Geometry(g.form, g.omega, g.p, (1, 0, 1, 0, 0, 0))
    assert any("pair to zero" in v for v in crossed.flags)


def test_classify_cycle_point_flag_on_p():
    g = build_geometry(GF2, Arf.finite(0), Arf.finite(1))
    assert g.form.q(g.p.rep) == 0
    flags = classify_cycle(g, g.p)
    assert flags.hypercycle and flags.point
    assert not flags.independent


def test_hypercycle_count_gf2():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    reps = list(projective_reps(GF2, 6))
    assert len(reps) == 63
    count = sum(1 for c in reps if classify_cycle(g, c).hypercycle)
    assert count == 35
    assert len(quadric_points(g)) == 35


def test_quadric_counts_split_by_total_arf():
    plus = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    minus = build_geometry(GF2, Arf.finite(1), Arf.finite(1),
                           arf_v=Arf.finite(1))
    assert len(quadric_points(plus)) == 35
    assert len(quadric_points(minus)) == 27
    assert all(any(c.rep) for c in quadric_points(plus))


def test_quadric_guard():
    g = build_geometry(GF2Field(5), Arf.finite(0), Arf.finite(0))
    with pytest.raises(TooLargeError):
        quadric_points(g)


def test_quadric_points_cached_per_geometry():
    g = build_geometry(GF4, Arf.finite(1), Arf.infinity())
    first = quadric_points(g)
    assert first and quadric_points(g) == first
    kept = list(first)
    first.clear()
    assert quadric_points(g) == kept


def test_normal_form_scans_the_quadric_once(monkeypatch):
    evaluated = []
    public_q = QuadraticForm.q

    def counting_q(self, v):
        evaluated.append(v)
        return public_q(self, v)

    monkeypatch.setattr(QuadraticForm, "q", counting_q)
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    assert g.is_valid()
    evaluated.clear()
    assert normal_form(g) is not None
    fresh = len(evaluated)
    evaluated.clear()
    assert normal_form(g) is not None
    cached = len(evaluated)
    # the only difference between the runs is the one scan of PG(5, 2)
    assert fresh - cached == 63
    evaluated.clear()
    assert len(quadric_points(g)) == 35
    assert evaluated == []


def test_dependent_line():
    g = build_geometry(GF2, Arf.finite(1), Arf.infinity())
    assert g.form.b(g.omega.rep, g.l.rep) == 0
    ell = dependent_line(g)
    flags = classify_cycle(g, ell)
    assert flags.hypercycle and flags.line and flags.real
    assert not flags.ideal and not flags.independent
    # every other real non-ideal line is independent
    for c in projective_reps(GF2, 6):
        fl = classify_cycle(g, c)
        if (fl.hypercycle and fl.line and fl.real and not fl.ideal
                and ProjPoint(GF2, c) != ell):
            assert fl.independent
    with pytest.raises(NotDefinedError):
        dependent_line(build_geometry(GF2, Arf.finite(1), Arf.finite(1)))


def test_incident():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    c = (0, 0, 0, 1, 0, 0)
    assert incident(g, c, c)
    assert not incident(g, g.omega, g.p)
    for c in projective_reps(GF2, 6):
        assert incident(g, c, g.p) == classify_cycle(g, c).point


def test_arf_of_values():
    g = build_geometry(GF2, Arf.finite(0), Arf.finite(1))
    assert arf_of(g, g.p) == Arf.finite(0)
    gi = build_geometry(GF2, Arf.infinity(), Arf.finite(1))
    assert arf_of(gi, gi.p).is_infinity
    g4 = build_geometry(GF4, Arf.finite(2), Arf.finite(1))
    assert arf_of(g4, g4.p) == Arf.finite(2)
    restricted = g4.form.restrict([g4.omega.rep, g4.p.rep])
    assert arf_invariant(restricted) == Arf.finite(2)
    with pytest.raises(NotDefinedError):
        arf_of(g, g.omega)


def test_arf_of_scale_invariant():
    g = build_geometry(GF4, Arf.finite(3), Arf.finite(2))
    for c in ((0, 1, 1, 0, 2, 3), (1, 0, 0, 2, 0, 0)):
        base = arf_of(g, c)
        for lam in (2, 3):
            scaled = linalg.vec_scale(GF4, lam, c)
            assert arf_of(g, scaled) == base


def test_replace_omega_identity():
    g = build_geometry(GF4, Arf.finite(2), Arf.finite(3))
    moved, pred_l, pred_p = replace_omega(g, 0, 0)
    assert moved == g
    assert pred_l == arf_of(g, g.l)
    assert pred_p == arf_of(g, g.p)


def test_replace_omega_keeps_infinity():
    g = build_geometry(GF2, Arf.finite(1), Arf.infinity())
    for alpha, beta in itertools.product(GF2.elements(), repeat=2):
        try:
            moved, pred_l, _ = replace_omega(g, alpha, beta)
        except DegenerateOmegaError:
            continue
        assert pred_l.is_infinity
        assert arf_of(moved, moved.l).is_infinity


@pytest.mark.parametrize("field", [GF2, GF4])
def test_replace_omega_generic_formula(field):
    nonzero = [x for x in field.elements() if x]
    seeds = [(a, b) for a in nonzero for b in nonzero]
    for va, vb in seeds:
        g = build_geometry(field, Arf.finite(va), Arf.finite(vb))
        for alpha, beta in itertools.product(field.elements(), repeat=2):
            try:
                moved, pred_l, pred_p = replace_omega(g, alpha, beta)
            except DegenerateOmegaError:
                assert g.form.q(linalg.vec_add(
                    g.omega.rep,
                    linalg.vec_add(
                        linalg.vec_scale(field, alpha, g.p.rep),
                        linalg.vec_scale(field, beta, g.l.rep)))) == 0
                continue
            assert validate_geometry(moved) == []
            assert arf_of(moved, moved.l) == pred_l
            assert arf_of(moved, moved.p) == pred_p


def test_replace_omega_preserves_omega_free_flags():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    moves = []
    for alpha, beta in itertools.product(GF2.elements(), repeat=2):
        try:
            moves.append(replace_omega(g, alpha, beta)[0])
        except DegenerateOmegaError:
            pass
    assert moves
    for c in projective_reps(GF2, 6):
        base = classify_cycle(g, c)
        for moved in moves:
            got = classify_cycle(moved, c)
            assert (got.hypercycle, got.point, got.line, got.ideal) == \
                (base.hypercycle, base.point, base.line, base.ideal)


def test_replace_omega_degenerate_rejected():
    g = build_geometry(GF2, Arf.finite(0), Arf.finite(0))
    with pytest.raises(DegenerateOmegaError):
        replace_omega(g, 1, 0)


def test_transformation_class_cases():
    gi = build_geometry(GF2, Arf.infinity(), Arf.finite(0))
    d = transformation_class(gi)
    assert d.kind == "exact-pair"
    assert d.arf_p.is_infinity and d.arf_l == Arf.finite(0)

    g = build_geometry(GF4, Arf.finite(2), Arf.finite(3))
    d = transformation_class(g)
    assert d.kind == "ratio"
    assert d.rho == GF4.div(3, 2) == 2

    geq = build_geometry(GF4, Arf.finite(2), Arf.finite(2))
    d = transformation_class(geq)
    assert d.kind == "arf-class"
    assert d.arf_class == CLASS_E


def test_normal_form_gf2_elliptic():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    t = normal_form(g)
    assert t is not None
    transformed = g.form.transform(t)
    gram = transformed.gram()
    for i in range(6):
        for j in range(6):
            expected = 1 if (i // 2 == j // 2 and i != j) else 0
            assert gram[i][j] == expected
    # total Arf class 0, so the witness hyperbolizes Q completely
    assert all(transformed.coeffs[i][i] == 0 for i in range(6))
    assert GF2.arf_normalize(arf_invariant(transformed)) == CLASS_ZERO


@pytest.mark.parametrize("field", [GF2, GF4])
def test_normal_form_all_cells(field):
    values = class_values(field)
    e = field.arf_e()
    for cp, cl in itertools.product(values, repeat=2):
        for av in (None, Arf.finite(e)):
            g = build_geometry(field, values[cp], values[cl], arf_v=av)
            t = normal_form(g)
            assert t is not None
            gram = g.form.transform(t).gram()
            for i in range(6):
                for j in range(6):
                    expected = 1 if (i // 2 == j // 2 and i != j) else 0
                    assert gram[i][j] == expected


def test_geometry_json_roundtrip():
    g = build_geometry(GF4, Arf.finite(2), Arf.infinity())
    doc = g.to_json()
    assert doc["P"] == [0, 1, 0, 0, 0, 0]
    assert Geometry.from_json(doc) == g
    doc["omega"] = [2, 0, 0, 0, 0, 0]
    assert Geometry.from_json(doc) == g


def test_geometry_from_json_rejects_malformed_documents():
    doc = build_geometry(GF2, Arf.finite(1), Arf.finite(1)).to_json()
    for bad in ({}, [1, 2], dict(doc, omega=1), dict(doc, P=[1, "0"]),
                dict(doc, form=[]), dict(doc, field={"modulus": 3})):
        with pytest.raises(MalformedDocumentError):
            Geometry.from_json(bad)


def test_cycles_must_have_six_coordinates():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    with pytest.raises(DimMismatchError):
        Geometry(g.form, g.omega, g.p, (0, 0, 1, 0, 0))
    with pytest.raises(DimMismatchError):
        incident(g, g.p, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DimMismatchError):
        classify_cycle(g, ProjPoint(GF2, (0, 1)))
