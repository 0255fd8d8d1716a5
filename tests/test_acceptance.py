"""Acceptance gate: twelve exact, desk-scale criteria.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  Every check is exact (no numeric tolerance) and carries an
explicit wall-clock budget.
"""

import itertools
import time

from char2conf import linalg, metric, oracle
from char2conf.confgeo import (
    CLASS_TABLE, arf_of, build_geometry, classify_cycle, classify_geometry,
    normal_form, projective_reps, quadric_points, replace_omega,
)
from char2conf.errors import DegenerateOmegaError
from char2conf.gf2field import Arf, GF2Field
from char2conf.metric import (
    DEGENERATE_PAIR, line_group, ort_group, ort_plus,
    oriented_distance, point_orbit,
)
from char2conf.quadspace import (
    ORTHOGONAL, QuadraticForm, arf_invariant, spaces_isomorphic,
)

GF2 = GF2Field(1)
GF4 = GF2Field(2)

CLASSES = ["0", "e", "inf"]


def _done(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, (
        "criterion %d blew its %gs budget: %.2fs" % (num, budget, elapsed))
    print("[PASS] criterion %2d (%5.2fs): %s" % (num, elapsed, label))


def _dim2_forms(field):
    return [QuadraticForm(field, [[a, b], [0, c]])
            for a in field.elements() for b in field.elements()
            for c in field.elements() if b]


def test_criterion_01_h_image_scaling():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        report = oracle.verify_lindex(GF2Field(n))
        assert report.ok, report.failures
    _done(1, "scaled h-images: quarter meet, full span, n in {2,3,4}",
          t0, 1.0)


def test_criterion_02_h_image_is_trace_kernel():
    t0 = time.monotonic()
    for n in range(1, 9):
        field = GF2Field(n)
        image = {field.h(x) for x in field.elements()}
        kernel = {x for x in field.elements() if field.trace(x) == 0}
        assert image == kernel
    _done(2, "h image equals the trace-polynomial root set, n <= 8", t0, 1.0)


def test_criterion_03_arf_basis_invariance():
    t0 = time.monotonic()
    r = oracle.verify_arf_wellposed(GF2, 2)
    assert r.ok and r.notes["matrices"] == 6
    r = oracle.verify_arf_wellposed(GF4, 2)
    assert r.ok and r.notes["matrices"] == 180
    _done(3, "Arf class constant under 6 + 180 basis changes", t0, 1.0)


def test_criterion_04_arf_classifies_dim2_spaces():
    t0 = time.monotonic()
    for field in (GF2, GF4):
        forms = _dim2_forms(field)
        for f1, f2 in itertools.product(forms, forms):
            same = (field.arf_normalize(arf_invariant(f1))
                    == field.arf_normalize(arf_invariant(f2)))
            witness = spaces_isomorphic(f1, f2)
            assert (witness is not None) == same
            if witness is not None:
                assert f2.transform(witness) == f1
    _done(4, "isomorphism witness exists iff Arf classes agree (dim 2)",
          t0, 10.0)


def test_criterion_05_group_orders():
    t0 = time.monotonic()
    for field in (GF2, GF4):
        q = 2 ** field.n
        by_class = {
            "e": ort_group(field, Arf.finite(field.arf_e())),
            "0": ort_group(field, Arf.finite(0)),
            "inf": ort_group(field, Arf.infinity()),
        }
        assert by_class["e"].order == 2 * (q + 1)
        assert by_class["0"].order == 2 * (q - 1)
        assert by_class["inf"].order == 2 * q
        for grp in by_class.values():
            assert 2 * ort_plus(grp).order == grp.order
    _done(5, "|Ort| = 2(q+1), 2(q-1), 2q with index-2 oriented part", t0, 5.0)


def test_criterion_06_orbit_sizes():
    t0 = time.monotonic()
    for field in (GF2, GF4):
        report = oracle.verify_ort_orbits(field)
        assert report.ok, report.failures
        assert set(report.notes["orbit_sizes"]) == {2 ** field.n + 1}
    _done(6, "every nonzero orbit has q + 1 points, q in {2,4}", t0, 5.0)


def test_criterion_07_sign_scalar_constraint():
    t0 = time.monotonic()
    for field in (GF2, GF4):
        report = oracle.verify_lambda_constraint(field)
        assert report.ok, report.failures
        # x + x^2 = 0 holds throughout; the competing printed relation
        # x + x^2 = 1 fails and stays on record in the report notes
        assert report.notes["relation_x_plus_x2_eq_0"] is True
        assert report.notes["relation_x_plus_x2_eq_1"] is False
    _done(7, "lambda in {0,1} with x+x^2=0; the =1 variant refuted on"
             " record", t0, 5.0)


def test_criterion_08_normal_form_and_quadric_counts():
    t0 = time.monotonic()
    e = Arf.finite(GF2.arf_e())
    g = build_geometry(GF2, e, e)
    witness = normal_form(g)
    assert witness is not None
    gram = g.form.transform(witness).gram()
    for i in range(6):
        for j in range(6):
            want = 1 if (i // 2 == j // 2 and i != j) else 0
            assert gram[i][j] == want
    assert len(quadric_points(g)) == 35
    g_odd = build_geometry(GF2, e, e, arf_v=e)
    assert len(quadric_points(g_odd)) == 27
    _done(8, "hyperbolic-blocks witness; 35 vs 27 quadric points", t0, 10.0)


def test_criterion_09_replacement_formula():
    t0 = time.monotonic()
    checked = 0
    for field in (GF2, GF4):
        values = {c: field.arf_of_class(c) for c in CLASSES}
        for cp, cl in itertools.product(CLASSES, CLASSES):
            g = build_geometry(field, values[cp], values[cl])
            before_l, before_p = arf_of(g, g.l), arf_of(g, g.p)
            for alpha in field.elements():
                for beta in field.elements():
                    try:
                        moved, pred_l, pred_p = replace_omega(g, alpha, beta)
                    except DegenerateOmegaError:
                        continue
                    truth_l = arf_of(moved, moved.l)
                    truth_p = arf_of(moved, moved.p)
                    assert pred_l == truth_l
                    assert pred_p == truth_p
                    for before, after in ((before_l, truth_l),
                                          (before_p, truth_p)):
                        if before.is_infinity or before.value == 0:
                            assert after == before
                    checked += 1
    assert checked > 0
    _done(9, "replacement closed form matches recomputation on %d moves;"
             " 0/inf markers pinned" % checked, t0, 30.0)


def test_criterion_10_classification_round_trip():
    t0 = time.monotonic()
    anchors = {("e", "e"): "elliptic",
               ("inf", "inf"): "laguerre-galilei",
               ("0", "inf"): "minkowski"}
    for field in (GF2, GF4):
        for cp, cl in itertools.product(CLASSES, CLASSES):
            g = build_geometry(field, field.arf_of_class(cp),
                               field.arf_of_class(cl))
            assert g.is_valid()
            got = classify_geometry(g)
            assert (got.arf_p, got.arf_l) == (cp, cl)
            assert got.name == CLASS_TABLE[(cp, cl)]
            if (cp, cl) in anchors:
                assert got.name == anchors[(cp, cl)]
    _done(10, "all 9 class pairs round trip over GF(2) and GF(4)", t0, 10.0)


def test_criterion_11_distance_structure():
    t0 = time.monotonic()
    e = Arf.finite(GF2.arf_e())
    g = build_geometry(GF2, e, e)
    ell = (1, 0, 0, 1, 0, 1)
    group = ort_plus(line_group(g, ell))
    assert group.order == 3
    orbit = point_orbit(g, ell, Arf.finite(0))
    assert len(orbit) == 3
    # simple transitivity: oriented_distance is defined and unique for
    # every ordered pair, which its internal uniqueness check enforces
    dist = {}
    for p1, p2 in itertools.product(orbit, orbit):
        dist[(p1.rep, p2.rep)] = oriented_distance(g, ell, p1, p2)
    for p in orbit:
        assert dist[(p.rep, p.rep)] == group.identity()
    for p1, p2 in itertools.product(orbit, orbit):
        assert dist[(p2.rep, p1.rep)] == group.inv(dist[(p1.rep, p2.rep)])
    p1, p2, p3 = orbit
    assert dist[(p1.rep, p3.rep)] == group.mul(dist[(p2.rep, p3.rep)],
                                               dist[(p1.rep, p2.rep)])
    classes = {metric.distance(g, ell, p1, p2)
               for p1, p2 in itertools.product(orbit, orbit)}
    assert len(classes) == 2
    _done(11, "order-3 oriented group, simply transitive, 2 distance"
              " classes", t0, 10.0)


def test_criterion_12_line_group_dichotomy():
    t0 = time.monotonic()
    seen = {ORTHOGONAL: 0, DEGENERATE_PAIR: 0}
    for cp, cl in itertools.product(CLASSES, CLASSES):
        g = build_geometry(GF2, GF2.arf_of_class(cp), GF2.arf_of_class(cl))
        for c in projective_reps(GF2, 6):
            flags = classify_cycle(g, c)
            if not (flags.hypercycle and flags.line
                    and flags.independent and not flags.ideal):
                continue
            span = [g.omega.rep, g.p.rep, g.l.rep, c]
            kdim = len(linalg.nullspace(GF2, list(
                g.form.restrict(span).gram())))
            grp = line_group(g, c)
            assert kdim in (0, 2)
            if grp.kind == DEGENERATE_PAIR:
                assert kdim == 2
                assert grp.order == 4  # 2q at q = 2
                for x in grp.elements:
                    assert grp.mul(x, x) == grp.identity()
            else:
                assert grp.kind == ORTHOGONAL
                assert kdim == 0
                assert grp.form.dim == 2
            seen[grp.kind] += 1
    assert seen[ORTHOGONAL] and seen[DEGENERATE_PAIR]
    _done(12, "every independent non-ideal line over GF(2) obeys the"
              " kernel dichotomy (%d + %d lines)"
              % (seen[ORTHOGONAL], seen[DEGENERATE_PAIR]), t0, 30.0)
