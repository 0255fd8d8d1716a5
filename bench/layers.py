"""Per-layer metrics, derived from a traced run's aggregated statistics.

Every value is per pass: one execution of the workload's seeded request
list.  Counts therefore repeat exactly between runs of the same seed,
while times (``*_s``) are seconds of traced wall time per pass.  A layer
that a workload bypasses reports 0, and so does a yield whose
denominator is 0.

`PER_LAYER` is the single list of names, units and directions; the
benchmark's tests check that ``BENCHMARK.json`` declares the same list.
"""

from tracer import LAYERS


def _calls(key):
    return lambda s: s["stats"].get(key, [0])[0]


def _self(key):
    return lambda s: s["stats"].get(key, [0, 0.0, 0.0])[2]


def _layer_self(layer):
    return lambda s: sum(v[2] for k, v in s["stats"].items()
                         if k.split(".", 1)[0] == layer)


def _layer_calls(layer):
    return lambda s: sum(v[0] for k, v in s["stats"].items()
                         if k.split(".", 1)[0] == layer)


def _busy(suite):
    return lambda s: s["labelled"].get("oracle.run_suite|" + suite, 0.0)


def _ratio(num, den):
    def value(s):
        d = den(s)
        return num(s) / d if d else 0.0
    return value


def _measured(key):
    return lambda s: s["stats"].get(key, [0, 0.0, 0.0, 0])[3]


def _pair(parent, child):
    return lambda s: s["pairs"].get("%s|%s" % (parent, child), 0)


def _raised(layer):
    return lambda s: s["raised"].get(layer, 0)


Q = "quadspace.QuadraticForm.q"
ISOM = "quadspace.enumerate_isometries"
QUADRIC = "confgeo.quadric_points"
ODIST = "metric.oriented_distance"

# (name, unit, better, value of a merged snapshot); values are divided by
# the number of traced passes, except ratios.
_DEFS = [
    ("gf2field.mul.calls", "count", "lower", _calls("gf2field.GF2Field.mul")),
    ("gf2field.inv.calls", "count", "lower", _calls("gf2field.GF2Field.inv")),
    ("gf2field.trace.calls", "count", "lower",
     _calls("gf2field.GF2Field.trace")),
    ("gf2field.sqrt.calls", "count", "lower",
     _calls("gf2field.GF2Field.sqrt")),
    ("gf2field.solve_quadratic.calls", "count", "lower",
     _calls("gf2field.GF2Field.solve_quadratic")),
    ("gf2field.check.calls", "count", "lower",
     _calls("gf2field.GF2Field.check")),
    ("gf2field.self_s", "s", "lower", _layer_self("gf2field")),
    ("linalg.rref.calls", "count", "lower", _calls("linalg.rref")),
    ("linalg.solve_affine.calls", "count", "lower",
     _calls("linalg.solve_affine")),
    ("linalg.mat_mul.calls", "count", "lower", _calls("linalg.mat_mul")),
    ("linalg.mat_inv.calls", "count", "lower", _calls("linalg.mat_inv")),
    ("linalg.self_s", "s", "lower", _layer_self("linalg")),
    ("quadspace.q.calls", "count", "lower", _calls(Q)),
    ("quadspace.b.calls", "count", "lower",
     _calls("quadspace.QuadraticForm.b")),
    ("quadspace.check_vec.calls", "count", "lower",
     _calls("quadspace.QuadraticForm.check_vec")),
    ("quadspace.arf_invariant.calls", "count", "lower",
     _calls("quadspace.arf_invariant")),
    ("quadspace.enumerate_isometries.calls", "count", "lower", _calls(ISOM)),
    ("quadspace.enumerate_isometries.self_s", "s", "lower", _self(ISOM)),
    ("quadspace.self_s", "s", "lower", _layer_self("quadspace")),
    ("quadspace.isometry_yield", "ratio", "higher",
     _ratio(_measured(ISOM), _pair(ISOM, Q))),
    ("virtualspace.calls", "count", "lower", _layer_calls("virtualspace")),
    ("virtualspace.self_s", "s", "lower", _layer_self("virtualspace")),
    ("confgeo.quadric_points.calls", "count", "lower", _calls(QUADRIC)),
    ("confgeo.quadric_points.self_s", "s", "lower", _self(QUADRIC)),
    ("confgeo.normal_form.self_s", "s", "lower",
     _self("confgeo.normal_form")),
    ("confgeo.self_s", "s", "lower", _layer_self("confgeo")),
    ("confgeo.quadric_yield", "ratio", "higher",
     _ratio(_measured(QUADRIC), _pair(QUADRIC, Q))),
    ("metric.line_group.self_s", "s", "lower", _self("metric.line_group")),
    ("metric.point_orbit.self_s", "s", "lower", _self("metric.point_orbit")),
    ("metric.self_s", "s", "lower", _layer_self("metric")),
    ("metric.distance_yield", "ratio", "higher",
     _ratio(_calls(ODIST), _pair(ODIST, "metric.OrtGroup.ambient_matrix"))),
    ("oracle.lindex.busy_s", "s", "lower", _busy("lindex")),
    ("oracle.orbits.busy_s", "s", "lower", _busy("orbits")),
    ("oracle.lambda.busy_s", "s", "lower", _busy("lambda")),
    ("oracle.transformation.busy_s", "s", "lower", _busy("transformation")),
    ("oracle.arf.busy_s", "s", "lower", _busy("arf")),
    ("oracle.cases", "count", "higher", _measured("oracle.run_suite")),
    ("cli.run.self_s", "s", "lower", _self("cli.run")),
    ("cli.self_s", "s", "lower", _layer_self("cli")),
] + [("%s.raised" % layer, "count", "lower", _raised(layer))
     for layer in LAYERS]

_RATIOS = {"quadspace.isometry_yield", "confgeo.quadric_yield",
           "metric.distance_yield"}

# Measured by spawning processes, not from the trace (see run.py).
SPAWNED = [("cli.interp_s", "s", "lower"), ("cli.import_s", "s", "lower")]

OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")

PER_LAYER = ([(name, unit, better) for name, unit, better, _ in _DEFS]
             + SPAWNED + [OVERHEAD])

# Result sizes the tracer sums per function; the yields above use them.
MEASURES = {
    QUADRIC: len,
    ISOM: len,
    "oracle.run_suite": lambda reports: sum(r.cases_checked for r in reports),
}

# oracle.run_suite statistics are split by suite name, its first argument.
LABELS = {"oracle.run_suite": 0}


def layer_metrics(snapshot, passes):
    """{name: value} for every traced per-layer metric of a snapshot."""
    out = {}
    for name, _, _, value in _DEFS:
        v = value(snapshot)
        out[name] = v if name in _RATIOS else v / passes
    return out
