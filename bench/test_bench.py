"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench

They need no running benchmark: they check the tracer on known counts and
that BENCHMARK.json, workloads.json and the code agree on every name.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from char2conf import Arf, GF2Field, build_geometry  # noqa: E402
from char2conf import confgeo, metric, oracle, quadspace  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_quadric_points_trace_on_the_gf2_elliptic_geometry():
    f = GF2Field(1)
    g = build_geometry(f, Arf.finite(f.arf_e()), Arf.finite(f.arf_e()))
    tracer = Tracer(layers.MEASURES, layers.LABELS).install()
    try:
        points = confgeo.quadric_points(g)
    finally:
        tracer.uninstall()
    got = layers.layer_metrics(tracer.snapshot(), passes=1)
    assert len(points) == 35
    # one Q evaluation per projective point of PG(5, 2)
    assert got["quadspace.q.calls"] == 63
    assert got["confgeo.quadric_points.calls"] == 1
    assert got["confgeo.quadric_yield"] == 35 / 63
    assert tracer.spans[0][3] == "confgeo.quadric_points"


def test_wrappers_reach_imported_bindings_and_are_removed():
    originals = (quadspace.enumerate_isometries, oracle.arf_invariant,
                 metric.enumerate_isometries, GF2Field.__dict__["add"])
    assert metric.enumerate_isometries is quadspace.enumerate_isometries
    f = GF2Field(1)
    g = build_geometry(f, Arf.finite(f.arf_e()), Arf.finite(f.arf_e()))
    tracer = Tracer(layers.MEASURES, layers.LABELS).install()
    try:
        assert metric.enumerate_isometries.__wrapped__ is originals[0]
        assert oracle.arf_invariant.__wrapped__ is originals[1]
        group = metric.line_group(g, (1, 0, 0, 1, 0, 1))
    finally:
        tracer.uninstall()
    assert (quadspace.enumerate_isometries, oracle.arf_invariant,
            metric.enumerate_isometries,
            GF2Field.__dict__["add"]) == originals
    snap = tracer.snapshot()
    # line_group reaches enumerate_isometries only through metric's binding
    assert snap["pairs"]["metric.line_group|"
                         "quadspace.enumerate_isometries"] == 1
    assert snap["stats"]["quadspace.enumerate_isometries"][3] == group.order


def test_self_time_excludes_children_and_exceptions_are_counted():
    f = GF2Field(2)
    tracer = Tracer().install()
    try:
        f.inv(3)
        try:
            f.inv(0)
        except ZeroDivisionError:
            pass
    finally:
        tracer.uninstall()
    inv = tracer.stats["gf2field.GF2Field.inv"]
    pow_ = tracer.stats["gf2field.GF2Field.pow"]
    assert inv[0] == 2 and pow_[0] == 1
    assert abs(inv[1] - inv[2] - pow_[1]) < 1e-9
    assert tracer.raised["gf2field"] == 1


def test_declared_metrics_match_the_code():
    bench = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)
    assert sorted(workloads.load_records()) == sorted(workloads.WORKLOADS)
