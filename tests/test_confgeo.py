"""Geometry construction, classification, and the Omega-replacement law."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from char2conf.gf2field import GF2Field, Arf, CLASS_ZERO, CLASS_E, CLASS_INF
from char2conf.confgeo import (
    CLASS_TABLE, Geometry, ProjPoint, arf_of, as_point, build_geometry,
    classify_cycle, classify_geometry, incident, normal_form, projective_reps,
    quadric_points, replace_omega, transformation_class, validate_geometry,
)
from char2conf.quadspace import QuadraticForm, arf_invariant
from char2conf import linalg
from char2conf.errors import (
    BuildFailedError, DegenerateOmegaError, DimMismatchError,
    FieldMismatchError, MalformedDocumentError, NotDefinedError,
    TooLargeError,
)

GF2 = GF2Field(1)
GF4 = GF2Field(2)
FIELDS = [GF2Field(n) for n in range(1, 9)]
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@st.composite
def geometries(draw):
    """(field, geometry) over GF(2^n), n <= 8, with random Arf data;
    the entries 0 and 1 are favoured, so 0 and infinity values occur."""
    field = draw(st.sampled_from(FIELDS))
    elem = st.one_of(st.sampled_from((0, 1)),
                     st.integers(0, field.order - 1))
    arf = st.one_of(st.just(Arf.infinity()), elem.map(Arf.finite))
    return field, build_geometry(field, draw(arf), draw(arf),
                                 arf_v=Arf.finite(draw(elem)))


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


def test_points_take_coordinates_only_as_field_elements():
    # int() would read 1.9, True and "1" as 1 and accept the point e_0
    g = build_geometry(GF4, Arf.finite(1), Arf.finite(1))
    for bad in (1.9, 1.0, True, "1", None, 4, -1):
        raw = (bad, 0, 0, 0, 0, 0)
        for call in (lambda: ProjPoint(GF4, raw),
                     lambda: classify_cycle(g, raw),
                     lambda: incident(g, g.p, raw),
                     lambda: incident(g, raw, g.p),
                     lambda: arf_of(g, raw)):
            with pytest.raises(ValueError) as exc:
                call()
            assert type(exc.value) is ValueError  # the field's own error


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


def test_omega_perp_always_has_a_degenerate_pairing():
    # why validate_geometry does not check it: Omega-perp is 5-dim, and an
    # alternating Gram matrix has even rank, or it is the whole space and
    # Omega lies in the kernel of B; degenerate forms are included
    rng = random.Random(0)
    dims = set()
    for f in FIELDS[:3]:
        for _ in range(300):
            form = QuadraticForm(f, [[rng.randrange(f.order) if j >= i else 0
                                      for j in range(6)] for i in range(6)])
            omega = [rng.randrange(f.order) for _ in range(6)]
            if not any(omega):
                continue
            perp = form.perp([omega])
            dims.add(perp.dim)
            restricted = form.restrict(perp.basis)
            assert linalg.nullspace(f, list(restricted.gram()))
    assert dims == {5, 6}  # both cases occur


def test_validate_catches_dependence_and_pairing():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    same = Geometry(g.form, g.omega, g.p, g.p)
    assert any("independent" in v for v in same.flags)
    crossed = Geometry(g.form, g.omega, g.p, (1, 0, 1, 0, 0, 0))
    assert any("pair to zero" in v for v in crossed.flags)


def test_independence_flag_is_the_rank_definition():
    # on valid geometries and on geometries whose markers are dependent;
    # the latter's cached span says no cycle is independent
    f = GF2Field(2)
    g = build_geometry(f, Arf.finite(f.arf_e()), Arf.infinity())
    dependent = [Geometry(g.form, g.omega, g.p, g.p),
                 Geometry(g.form, g.omega, g.p,
                          linalg.vec_add(g.omega.rep, g.p.rep))]
    for geometry in [g] + dependent:
        marked = [geometry.omega.rep, geometry.p.rep, geometry.l.rep]
        for rep in projective_reps(f, 6):
            flags = classify_cycle(geometry, rep)
            assert flags.independent == (
                linalg.rank(f, marked + [rep]) == 4)
    for geometry in dependent:
        assert geometry._span.dim < 3
        assert not any(classify_cycle(geometry, rep).independent
                       for rep in projective_reps(f, 6))


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


def _seeded_form(field, rng, e5_square, e5_pairs, e0_radical):
    """A random 6-dim form with Q(e5) and B(., e5) on the hyperplane
    x5 = 0 forced to zero or to nonzero, and optionally e0 in the
    radical."""
    draw = lambda: rng.randrange(field.order)  # noqa: E731
    nonzero = lambda: rng.randrange(1, field.order)  # noqa: E731
    coeffs = [[draw() if j >= i else 0 for j in range(6)] for i in range(6)]
    coeffs[5][5] = nonzero() if e5_square else 0
    for i in range(5):
        coeffs[i][5] = 0
    if e5_pairs:
        coeffs[4][5] = nonzero()
    if e0_radical:
        coeffs[0] = [0] * 6
    return QuadraticForm(field, coeffs)


# (Q(e5) != 0, B(., e5) not zero on the hyperplane, e0 in the radical):
# with B(., e5) = 0 each line has one zero when Q(e5) != 0; when also
# Q(e5) = 0, e5 is in the radical and a line holds every t or none
QUADRIC_SHAPES = [(True, True, False), (False, True, False),
                  (True, False, False), (False, False, False),
                  (True, True, True), (False, True, True)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadric_points_match_a_raw_scan(n):
    f = GF2Field(n)
    rng = random.Random(n)
    e5 = (0, 0, 0, 0, 0, 1)
    markers = [tuple(int(i == j) for j in range(6)) for i in range(3)]
    for e5_square, e5_pairs, e0_radical in QUADRIC_SHAPES:
        for _ in range(3):
            form = _seeded_form(f, rng, e5_square, e5_pairs, e0_radical)
            want = [v for v in projective_reps(f, 6) if form.q(v) == 0]
            g = Geometry(form, *markers)
            assert [c.rep for c in quadric_points(g)] == want
            assert (e5 in want) == (not e5_square)
            if not (e5_square or e5_pairs):
                # each line through e5 lies on the quadric or misses it
                # but for e5, and both kinds occur
                heads = {v[:5] for v in want if any(v[:5])}
                full = {v[:5] for v in want
                        if any(v[:5]) and v[5] == f.order - 1}
                lines = (f.order ** 5 - 1) // (f.order - 1)
                assert full == heads and 0 < len(heads) < lines


def test_quadric_points_evaluate_q_twice_per_line(monkeypatch):
    calls = []
    public_q = QuadraticForm.q

    def counting_q(self, v):
        calls.append(v)
        return public_q(self, v)

    monkeypatch.setattr(QuadraticForm, "q", counting_q)
    g = build_geometry(GF4, Arf.finite(1), Arf.infinity())
    calls.clear()
    points = quadric_points(g)
    # Q(p) and Q(p + e5) on each of the (4^5 - 1)/3 = 341 lines through
    # e5, and Q(e5) once; a per-point scan makes (4^6 - 1)/3 = 1,365
    assert len(calls) == 2 * 341 + 1 == 683
    assert [c.rep for c in points] == [
        v for v in projective_reps(GF4, 6) if public_q(g.form, v) == 0]


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


def dependent_line(g):
    """sqrt(Q(Omega)) L + sqrt(Q(L)) Omega, a line when B(Omega, L) = 0."""
    f, q = g.field, g.form.q
    a, b = f.sqrt(q(g.omega.rep)), f.sqrt(q(g.l.rep))
    return ProjPoint(f, linalg.combine(f, (a, b), (g.l.rep, g.omega.rep)))


def test_dependent_line():
    # with B(Omega, L) = 0 it is the one real non-ideal line living inside
    # the marked span
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


@PROPERTY
@given(geometries(), st.data())
def test_replace_omega_predictions_match_recomputation(case, data):
    field, g = case
    alpha, beta = data.draw(st.tuples(*[st.integers(0, field.order - 1)] * 2))
    new_omega = linalg.combine(field, (1, alpha, beta),
                               (g.omega.rep, g.p.rep, g.l.rep))
    if g.form.q(new_omega) == 0:
        with pytest.raises(DegenerateOmegaError):
            replace_omega(g, alpha, beta)
        return
    moved, pred_l, pred_p = replace_omega(g, alpha, beta)
    assert validate_geometry(moved) == []
    assert arf_of(moved, moved.l) == pred_l
    assert arf_of(moved, moved.p) == pred_p


@PROPERTY
@given(geometries(), st.data())
def test_arf_of_is_invariant_under_rescaling(case, data):
    field, g = case
    x = data.draw(st.tuples(*[st.integers(0, field.order - 1)] * 6))
    lam = data.draw(st.integers(1, field.order - 1))
    scaled = linalg.vec_scale(field, lam, x)
    if linalg.rank(field, [g.omega.rep, x]) < 2:
        for c in (x, scaled):
            with pytest.raises(NotDefinedError):
                arf_of(g, c)
        return
    assert arf_of(g, scaled) == arf_of(g, x)


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


def test_build_geometry_refuses_non_integer_arf_values():
    # coerced by int(), these would build Q(P) = 1 and Q(L) = 3
    with pytest.raises(ValueError):
        build_geometry(GF4, Arf.finite(1.9), Arf.finite("3"))


def test_points_and_forms_over_another_field_are_refused():
    g = build_geometry(GF4, Arf.finite(2), Arf.finite(2))
    stranger = ProjPoint(GF2, (1, 0, 0, 0, 0, 0))
    with pytest.raises(FieldMismatchError):
        as_point(GF4, stranger)
    with pytest.raises(FieldMismatchError):
        incident(g, g.p, stranger)
    # an equal field built separately is the same field
    twin = GF2Field(2)
    assert twin == GF4 and twin is not GF4
    pt = ProjPoint(twin, g.l.rep)
    assert as_point(GF4, pt) is pt
    assert incident(g, g.p, pt) == incident(g, g.p, g.l)
    doc = g.to_json()
    other = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    doc["form"] = other.form.to_json()
    with pytest.raises(FieldMismatchError):
        Geometry.from_json(doc)


def test_cycles_must_have_six_coordinates():
    g = build_geometry(GF2, Arf.finite(1), Arf.finite(1))
    with pytest.raises(DimMismatchError):
        Geometry(g.form, g.omega, g.p, (0, 0, 1, 0, 0))
    with pytest.raises(DimMismatchError):
        incident(g, g.p, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DimMismatchError):
        classify_cycle(g, ProjPoint(GF2, (0, 1)))
    # the length is checked on points over the very same field object too
    assert g.field is GF2
    with pytest.raises(DimMismatchError):
        as_point(GF2, ProjPoint(GF2, (0, 0, 1, 0, 0)))
