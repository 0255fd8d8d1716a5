"""Frozen expectations for the brute-force verification suite."""

import ast
import itertools
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from char2conf.errors import TooLargeError, UnsupportedDegreeError
from char2conf.gf2field import GF2Field
from char2conf.quadspace import enumerate_isometries
from char2conf import linalg, oracle

GF2 = GF2Field(1)
GF4 = GF2Field(2)
GF8 = GF2Field(3)


def test_lindex_small_fields():
    r = oracle.verify_lindex(GF4)
    assert r.ok
    assert r.claim_id == "h-image-scaling"
    assert r.cases_checked == 8
    assert r.notes == {"image_size": 2}

    r = oracle.verify_lindex(GF8)
    assert r.ok
    assert r.cases_checked == 16
    assert r.notes == {"image_size": 4}


def test_lindex_largest_allowed_degree():
    r = oracle.verify_lindex(GF2Field(8))
    assert r.ok
    assert r.cases_checked == 512
    # the image of x + x^2 is an index-4 subgroup once inverses exist
    assert r.notes == {"image_size": 128}


def test_lindex_guard():
    with pytest.raises(TooLargeError):
        oracle.verify_lindex(GF2Field(9))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(0, 15), st.integers(0, 2 ** 16 - 1)),
                max_size=24))
def test_gf2_rank_matches_row_reduction(values):
    def bits(x):
        return tuple((x >> i) & 1 for i in range(16))

    for rows in (values, values + values, values + [0, 0]):
        assert oracle._gf2_rank(rows) == linalg.rank(
            GF2, [bits(x) for x in rows])
    assert oracle._gf2_rank([]) == 0
    assert oracle._gf2_rank([0, 0]) == 0


def test_lindex_reports_a_wrong_image(monkeypatch):
    # in place of h(K), the subfield GF(4) of GF(16): it is closed under
    # scaling by its own elements, so for those lambda the union spans
    # only 2 of 4 dimensions
    field = GF2Field(4)
    sub = {x for x in field.elements() if field.pow(x, 4) == x}
    monkeypatch.setattr(oracle, "_h_image", lambda f: set(sub))
    r = oracle.verify_lindex(field)
    assert not r.ok
    spans = [f for f in r.failures if f.get("issue") == "union does not span"]
    assert spans == [{"lambda": lam, "issue": "union does not span",
                      "rank": 2} for lam in sorted(sub - {0, 1})]
    assert {"issue", "roots", "image"} <= set(r.failures[-1])


# report_lines recorded with the span rank taken by linalg.rank over bit
# tuples and the Arf value summed over symplectic_basis vectors
GOLDEN_LINDEX = [
    '{"cases_checked": 4, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 1, "notes": {"image_size": 1}}',
    '{"cases_checked": 8, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 2, "notes": {"image_size": 2}}',
    '{"cases_checked": 16, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 3, "notes": {"image_size": 4}}',
    '{"cases_checked": 32, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 4, "notes": {"image_size": 8}}',
    '{"cases_checked": 64, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 5, "notes": {"image_size": 16}}',
    '{"cases_checked": 128, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 6, "notes": {"image_size": 32}}',
    '{"cases_checked": 256, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 7, "notes": {"image_size": 64}}',
    '{"cases_checked": 512, "claim_id": "h-image-scaling", '
    '"failures": [], "field_n": 8, "notes": {"image_size": 128}}',
]
GOLDEN_ARF = [
    '{"cases_checked": 24, "claim_id": "arf-basis-invariance", '
    '"failures": [], "field_n": 1, '
    '"notes": {"dim": 2, "forms": 4, "matrices": 6}}',
    '{"cases_checked": 720, "claim_id": "arf-basis-invariance", '
    '"failures": [], "field_n": 1, '
    '"notes": {"dim": 4, "forms": 6, "matrices": 120}}',
    '{"cases_checked": 8640, "claim_id": "arf-basis-invariance", '
    '"failures": [], "field_n": 2, '
    '"notes": {"dim": 2, "forms": 48, "matrices": 180}}',
    '{"cases_checked": 720, "claim_id": "arf-basis-invariance", '
    '"failures": [], "field_n": 2, '
    '"notes": {"dim": 4, "forms": 6, "matrices": 120}}',
]
# report_lines recorded before the suites shared one table and one pair of
# plane models
GOLDEN_ORBITS = [
    '{"cases_checked": 5, "claim_id": "anisotropic-orbit-sizes", '
    '"failures": [], "field_n": 1, "notes": {"orbit_sizes": [3], '
    '"pair_group_index2_subgroups": 3, '
    '"pair_group_index2_unique": false, '
    '"sign_kernel_transitive_on_norm": {"0/1": true, "e/1": true}}}',
    '{"cases_checked": 21, "claim_id": "anisotropic-orbit-sizes", '
    '"failures": [], "field_n": 2, "notes": {"orbit_sizes": [5, 5, 5], '
    '"pair_group_index2_subgroups": 7, '
    '"pair_group_index2_unique": false, '
    '"sign_kernel_transitive_on_norm": {"0/1": true, "0/2": true, '
    '"0/3": true, "e/1": true, "e/2": true, "e/3": true}}}',
]
GOLDEN_LAMBDA = [
    '{"cases_checked": 8, "claim_id": "sign-scalar-range", '
    '"failures": [], "field_n": 1, '
    '"notes": {"lambda_counts": {"0/0": 1, "0/1": 1, "e/0": 3, '
    '"e/1": 3}, "relation_x_plus_x2_eq_0": true, '
    '"relation_x_plus_x2_eq_1": false}}',
    '{"cases_checked": 16, "claim_id": "sign-scalar-range", '
    '"failures": [], "field_n": 2, '
    '"notes": {"lambda_counts": {"0/0": 3, "0/1": 3, "e/0": 5, '
    '"e/1": 5}, "relation_x_plus_x2_eq_0": true, '
    '"relation_x_plus_x2_eq_1": false}}',
]
GOLDEN_TRANSFORMATION = [
    '{"cases_checked": 40, "claim_id": "marker-replacement-formula", '
    '"failures": [], "field_n": 1, '
    '"notes": {"invariance": {"arf-class": {"checked": 8, '
    '"class_pair_preserved": 8, "l_unchanged": 8, "p_unchanged": 8, '
    '"pair_unchanged": 8, "rho_preserved": 8}, '
    '"exact-pair": {"checked": 32, "class_pair_preserved": 32, '
    '"l_unchanged": 32, "p_unchanged": 32, "pair_unchanged": 32, '
    '"rho_preserved": 0}}, "skipped_degenerate": 32}}',
    '{"cases_checked": 368, "claim_id": "marker-replacement-formula", '
    '"failures": [], "field_n": 2, '
    '"notes": {"invariance": {"arf-class": {"checked": 32, '
    '"class_pair_preserved": 32, "l_unchanged": 16, "p_unchanged": 16, '
    '"pair_unchanged": 16, "rho_preserved": 32}, '
    '"exact-pair": {"checked": 192, "class_pair_preserved": 160, '
    '"l_unchanged": 160, "p_unchanged": 160, "pair_unchanged": 128, '
    '"rho_preserved": 0}, "ratio": {"checked": 144, '
    '"class_pair_preserved": 48, "l_unchanged": 48, "p_unchanged": 48, '
    '"pair_unchanged": 48, "rho_preserved": 144}}, '
    '"skipped_degenerate": 112}}',
]


def test_golden_report_lines():
    assert oracle.report_lines(oracle.run_suite("lindex", range(1, 9))) \
        == "\n".join(GOLDEN_LINDEX)
    assert oracle.report_lines(oracle.run_suite("arf", [1, 2])) \
        == "\n".join(GOLDEN_ARF)


@pytest.mark.parametrize("name, golden", [
    ("orbits", GOLDEN_ORBITS), ("lambda", GOLDEN_LAMBDA),
    ("transformation", GOLDEN_TRANSFORMATION)])
def test_golden_report_lines_at_degrees_1_and_2(name, golden):
    assert oracle.report_lines(oracle.run_suite(name, [1, 2])) \
        == "\n".join(golden)


def test_arf_wellposed_dim2_exhaustive():
    r = oracle.verify_arf_wellposed(GF2, 2)
    assert r.ok
    assert r.claim_id == "arf-basis-invariance"
    assert r.cases_checked == 24
    assert r.notes == {"dim": 2, "forms": 4, "matrices": 6}

    r = oracle.verify_arf_wellposed(GF4, 2)
    assert r.ok
    assert r.cases_checked == 8640
    assert r.notes == {"dim": 2, "forms": 48, "matrices": 180}


@pytest.mark.parametrize("field", [GF2, GF4])
def test_arf_wellposed_dim4_sampled(field):
    r = oracle.verify_arf_wellposed(field, 4)
    assert r.ok
    assert r.cases_checked == 720
    assert r.notes == {"dim": 4, "forms": 6, "matrices": 120}


def test_arf_wellposed_guards():
    with pytest.raises(TooLargeError):
        oracle.verify_arf_wellposed(GF8, 4)
    with pytest.raises(ValueError):
        oracle.verify_arf_wellposed(GF2, 3)


@pytest.mark.parametrize("n,sizes,subgroups", [
    (1, [3], 3),
    (2, [5, 5, 5], 7),
    (4, [17] * 15, 31),
])
def test_ort_orbit_partition(n, sizes, subgroups):
    field = GF2Field(n)
    r = oracle.verify_ort_orbits(field)
    assert r.ok
    assert r.claim_id == "anisotropic-orbit-sizes"
    assert r.notes["orbit_sizes"] == sizes
    # one index-2 subgroup per nonzero additive character, never unique
    assert r.notes["pair_group_index2_subgroups"] == subgroups
    assert r.notes["pair_group_index2_unique"] is False
    transitive = r.notes["sign_kernel_transitive_on_norm"]
    assert len(transitive) == 2 * (2 ** n - 1)
    assert all(transitive.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_raw_plane_groups_match_the_search(n):
    field = GF2Field(n)
    for label, form, elements, by_norm in oracle._plane_models(field):
        assert elements == enumerate_isometries(form).elements
        assert sorted(v for vs in by_norm.values() for v in vs) == [
            v for v in itertools.product(range(field.order), repeat=2)
            if any(v)]


def test_oracle_imports_no_isometry_search():
    # the orbits and lambda suites build their groups by raw enumeration,
    # never through the search they audit
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "enumerate_isometries" not in imported
    assert not hasattr(oracle, "enumerate_isometries")


def test_ort_orbit_guard():
    with pytest.raises(TooLargeError):
        oracle.verify_ort_orbits(GF2Field(5))


def test_lambda_constraint_gf2():
    r = oracle.verify_lambda_constraint(GF2)
    assert r.ok
    assert r.claim_id == "sign-scalar-range"
    assert r.cases_checked == 8
    assert r.notes["lambda_counts"] == {
        "0/0": 1, "0/1": 1, "e/0": 3, "e/1": 3}
    assert r.notes["relation_x_plus_x2_eq_0"] is True
    assert r.notes["relation_x_plus_x2_eq_1"] is False


def test_lambda_constraint_gf4():
    r = oracle.verify_lambda_constraint(GF4)
    assert r.ok
    assert r.cases_checked == 16
    assert r.notes["lambda_counts"] == {
        "0/0": 3, "0/1": 3, "e/0": 5, "e/1": 5}
    assert r.notes["relation_x_plus_x2_eq_0"] is True


def test_transformation_gf2():
    r = oracle.verify_transformation(GF2)
    assert r.ok
    assert r.claim_id == "marker-replacement-formula"
    assert r.cases_checked == 40
    assert r.notes["skipped_degenerate"] == 32
    table = r.notes["invariance"]
    assert table["arf-class"]["checked"] == 8
    assert table["arf-class"]["pair_unchanged"] == 8
    # the two-element field leaves no room for a marker value to move
    assert table["exact-pair"]["checked"] == 32
    assert table["exact-pair"]["pair_unchanged"] == 32


def test_transformation_gf8_predictions_exact():
    r = oracle.verify_transformation(GF8)
    assert r.ok
    assert r.cases_checked == 1696
    assert r.failures == []


def test_transformation_gf8_invariance_observations():
    table = oracle.verify_transformation(GF8).notes["invariance"]
    # markers sitting at 0 or infinity never move, but their finite
    # nonzero partner does: the exact value pair is not an invariant
    row = table["exact-pair"]
    assert row["checked"] == 896
    assert row["l_unchanged"] == 704
    assert row["p_unchanged"] == 704
    assert row["pair_unchanged"] == 512
    # the value ratio is preserved on every move where it is defined
    row = table["ratio"]
    assert row["checked"] == 672
    assert row["rho_preserved"] == 672
    row = table["arf-class"]
    assert row["checked"] == 128
    assert row["class_pair_preserved"] == 128


def test_transformation_guard():
    with pytest.raises(TooLargeError):
        oracle.verify_transformation(GF2Field(4))


def test_report_serialization():
    reports = [oracle.verify_lindex(GF4),
               oracle.VerificationReport("demo", 1, 3, [{"bad": 1}])]
    lines = oracle.report_lines(reports).splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["claim_id"] == "h-image-scaling"
    assert first["failures"] == []
    assert first["notes"] == {"image_size": 2}
    second = json.loads(lines[1])
    assert set(second) == {"claim_id", "field_n", "cases_checked", "failures"}
    assert not oracle.VerificationReport("demo", 1, 3, [{"bad": 1}]).ok


def test_run_suite_selection():
    reports = oracle.run_suite("lindex", [2])
    assert len(reports) == 1 and reports[0].field_n == 2
    with pytest.raises(ValueError):
        oracle.run_suite("unknown")


def test_arf_suite_refuses_degrees_without_a_dimension():
    # 2n > 8 leaves neither the 2- nor the 4-dimensional sweep; an empty
    # report list would read as success on nothing
    for n in (5, 8):
        with pytest.raises(TooLargeError):
            oracle.run_suite("arf", [n])
    with pytest.raises(TooLargeError):
        oracle.run_suite("arf", [1, 5])


def test_run_suite_checks_every_cap_before_any_work(monkeypatch):
    ran = []
    monkeypatch.setattr(oracle, "SUITES", dict(
        oracle.SUITES, lindex=(lambda field, seed: ran.append(field.n),)
        + oracle.SUITES["lindex"][1:]))
    with pytest.raises(TooLargeError) as exc:
        oracle.run_suite("lindex", [1, 9])
    assert ran == []
    assert str(exc.value) == "image scaling check capped at degree 8"
    # the verifier keeps its own guard for direct calls
    with pytest.raises(TooLargeError) as exc:
        oracle.verify_lindex(GF2Field(9))
    assert str(exc.value) == "image scaling check capped at degree 8"


def test_run_suite_checks_every_degree_before_any_work(monkeypatch):
    ran = []
    monkeypatch.setattr(oracle, "SUITES", dict(
        oracle.SUITES, lindex=(lambda field, seed: ran.append(field.n),)
        + oracle.SUITES["lindex"][1:]))
    for degrees, bad in (([8, 0], 0), ([3, -1], -1)):
        with pytest.raises(UnsupportedDegreeError) as exc:
            oracle.run_suite("lindex", degrees)
        assert str(exc.value) == "degree %d outside 1..16" % bad
    assert ran == []


@pytest.mark.parametrize("bad", ["3", None])
def test_run_suite_refuses_a_non_int_degree_before_any_work(monkeypatch,
                                                            bad):
    ran = []
    monkeypatch.setattr(oracle, "SUITES", dict(
        oracle.SUITES, lindex=(lambda field, seed: ran.append(field.n),)
        + oracle.SUITES["lindex"][1:]))
    for degrees in ([bad], [3, bad], [bad, 9]):
        with pytest.raises(UnsupportedDegreeError) as exc:
            oracle.run_suite("lindex", degrees)
        assert str(exc.value) == "degree %r outside 1..16" % (bad,)
        with pytest.raises(UnsupportedDegreeError):
            oracle.suite_degrees("lindex", degrees)
    assert ran == []
    # an int past the cap still reports the cap
    with pytest.raises(TooLargeError) as exc:
        oracle.run_suite("lindex", [0, 9])
    assert str(exc.value) == "image scaling check capped at degree 8"


@pytest.mark.parametrize("degrees", [
    range(1, 10 ** 6), range(1, 10 ** 19), range(-10 ** 19, 10 ** 19, 3)])
def test_suite_degrees_refuses_a_huge_range_in_little_memory(degrees):
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError) as exc:
            oracle.suite_degrees("lindex", degrees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "image scaling check capped at degree 8"
    assert peak < 2 ** 20


def test_suite_degrees_reads_a_range_as_its_list():
    def outcome(name, degrees):
        try:
            return oracle.suite_degrees(name, degrees)
        except (TooLargeError, UnsupportedDegreeError) as exc:
            return type(exc), str(exc)

    for name in ("lindex", "arf"):
        for start, stop in itertools.product(range(-12, 22), repeat=2):
            for step in (-7, -3, -2, -1, 1, 2, 3, 7):
                degrees = range(start, stop, step)
                assert outcome(name, degrees) \
                    == outcome(name, list(degrees)), degrees


def test_run_all_degree_trim():
    reports = oracle.run_all(max_degree=2)
    assert all(r.ok for r in reports)
    ids = sorted(r.claim_id for r in reports)
    # arf runs both dimensions per degree; everything else once
    assert ids.count("arf-basis-invariance") == 4
    assert ids.count("h-image-scaling") == 2
    assert ids.count("anisotropic-orbit-sizes") == 2
    assert ids.count("sign-scalar-range") == 2
    assert ids.count("marker-replacement-formula") == 2
