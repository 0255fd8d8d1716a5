"""Reach: a public call returns within its budget or refuses at once.

Each cell runs in a fresh child process under `subprocess.run(timeout=...)`,
so a call that passes its guard and then runs away fails its cell instead
of hanging the suite.  The child times the call itself, without the
interpreter's start-up, and prints one JSON line.  A budget is what the
call must meet; it is never widened to make a cell pass.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import char2conf

IMPORT_ROOT = str(pathlib.Path(char2conf.__file__).resolve().parent.parent)
# a refusal must come before any work
REFUSAL_BUDGET_S = 0.05
# kills a child that overruns; start-up is not part of any budget
KILL_AFTER_S = 10.0

SPACES_ISOMORPHIC = """
import json, sys, time
from char2conf.errors import TooLargeError
from char2conf.gf2field import GF2Field
from char2conf.quadspace import QuadraticForm, spaces_isomorphic

n, pair = int(sys.argv[1]), sys.argv[2]
f = GF2Field(n)
h = QuadraticForm(f, [[0, 1], [0, 0]])
e = QuadraticForm(f, [[1, 1], [0, f.arf_e()]])
z = QuadraticForm(f, [[0, 0], [0, 0]])
# E + E is hyperbolic, so E + E + H is isometric to H + H + H; H + H + E
# differs from it in the trace of the Arf invariant, and so does
# H + E + Z from H + H + Z on the quotient by the radical plane Z
first, second = {
    "isomorphic": (h.direct_sum(h).direct_sum(h),
                   e.direct_sum(e).direct_sum(h)),
    "not isomorphic": (h.direct_sum(h).direct_sum(h),
                       h.direct_sum(h).direct_sum(e)),
    "not isomorphic, radical plane": (h.direct_sum(h).direct_sum(z),
                                      h.direct_sum(e).direct_sum(z)),
}[pair]
start = time.perf_counter()
try:
    t = spaces_isomorphic(first, second)
    outcome = "none" if t is None else "isometry"
except TooLargeError:
    outcome = "refused"
seconds = time.perf_counter() - start
if outcome == "isometry":
    basis = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    images = [tuple(row[j] for row in t) for j in range(6)]
    assert all(second.q(images[i]) == first.q(basis[i])
               and second.b(images[i], images[j]) == first.b(basis[i], basis[j])
               for i in range(6) for j in range(6))
print(json.dumps({"outcome": outcome, "seconds": seconds}))
"""

GEOMETRY_CALLS = """
import json, sys, time
from char2conf.confgeo import build_geometry, normal_form, quadric_points
from char2conf.errors import PreconditionViolatedError, TooLargeError
from char2conf.gf2field import Arf, GF2Field
from char2conf.metric import distance, line_group, point_orbit
from char2conf.quadspace import QuadraticForm, enumerate_isometries

call, n = sys.argv[1], int(sys.argv[2])
f = GF2Field(n)
g = build_geometry(f, Arf.finite(f.arf_e()), Arf.finite(f.arf_e()))
# in the class-e/infinity geometry (1, 0, 0, 0, 0, 1) is a degenerate-pair
# line that is not a hypercycle at even n, so distance refuses it
g_inf = build_geometry(f, Arf.finite(f.arf_e()), Arf.infinity())
h = QuadraticForm(f, [[0, 1], [0, 0]])
hhh = h.direct_sum(h).direct_sum(h)
# in this elliptic geometry (1, 0, 0, 1, 0, 1) is an independent line with
# an orthogonal line group and a nonempty ratio-1 orbit, and e4 one whose
# line group is the degenerate-pair group of order 2q.  Q(1, 0, 0, 1, 0, 1)
# is 1 + e, so distance takes the real line (1, 0, 0, 1, 1, 0), on which Q
# vanishes at every n, with its real points e3 and (0, 1, 1, e, 0, 1)
run = {
    "quadric_points": lambda: quadric_points(g),
    "normal_form": lambda: normal_form(g),
    "point_orbit": lambda: point_orbit(g, (1, 0, 0, 1, 0, 1), 1),
    "point_orbit, degenerate-pair line":
        lambda: point_orbit(g, (0, 0, 0, 0, 1, 0), 1),
    "enumerate_isometries, H+H+H": lambda: enumerate_isometries(hhh),
    "enumerate_isometries, H+H+H, elements":
        lambda: enumerate_isometries(hhh).elements,
    "line_group": lambda: line_group(g, (1, 0, 0, 1, 0, 1)),
    "line_group, degenerate-pair line":
        lambda: line_group(g, (0, 0, 0, 0, 1, 0)),
    "distance": lambda: distance(g, (1, 0, 0, 1, 1, 0), (0, 0, 0, 1, 0, 0),
                                 (0, 1, 1, f.arf_e(), 0, 1)),
    "distance, no hypercycle": lambda: distance(
        g_inf, (1, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0)),
}[call]
start = time.perf_counter()
order = None
try:
    order = getattr(run(), "order", None)
    outcome = "returned"
except TooLargeError:
    outcome = "refused"
except PreconditionViolatedError:
    outcome = "bad input"
seconds = time.perf_counter() - start
print(json.dumps({"outcome": outcome, "seconds": seconds, "order": order}))
"""


VIRTUAL_SPACE = """
import json, sys, time
from char2conf.confgeo import build_geometry
from char2conf.errors import TooLargeError
from char2conf.gf2field import Arf, GF2Field
from char2conf.virtualspace import (
    embed_minimal, restriction_surjectivity, viso_group,
)

n, what = int(sys.argv[1]), sys.argv[2]
f = GF2Field(n)
# class 0/e: the marked span has a line of bilinear kernel and a trivial
# radical, so it embeds in a 4-dim ambient and has a restriction report
g = build_geometry(f, Arf.finite(0), Arf.finite(f.arf_e()))
space = embed_minimal(g.form.restrict([g.omega.rep, g.p.rep, g.l.rep]))
start = time.perf_counter()
report = None
try:
    order = viso_group(space).order
    if what == "report":
        report = restriction_surjectivity(space)
    outcome = "returned"
except TooLargeError:
    outcome, order = "refused", None
seconds = time.perf_counter() - start
print(json.dumps({"outcome": outcome, "seconds": seconds, "order": order,
                  "report": report}))
"""


def _run_cell(code, *args, kill_after=KILL_AFTER_S):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [IMPORT_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True, env=env,
                              timeout=kill_after)
    except subprocess.TimeoutExpired:
        pytest.fail("overran: killed after %.0f s" % kill_after)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# (n, pair, expected outcome, budget in seconds); the answer is built
# from two Witt bases, so no degree refuses
SPACES_ISOMORPHIC_CELLS = [
    (n, pair, expected, 1.0)
    for n in (1, 2, 3, 8, 16)
    for pair, expected in (("isomorphic", "isometry"),
                           ("not isomorphic", "none"),
                           ("not isomorphic, radical plane", "none"))
]


@pytest.mark.parametrize("n,pair,expected,budget", SPACES_ISOMORPHIC_CELLS,
                         ids=["n=%d %s" % c[:2] for c in SPACES_ISOMORPHIC_CELLS])
def test_spaces_isomorphic_on_6_dim_pairs(n, pair, expected, budget):
    got = _run_cell(SPACES_ISOMORPHIC, n, pair)
    assert got["outcome"] == expected
    assert got["seconds"] < budget


# (call, n, expected outcome, budget in seconds); the quadric walk is
# capped at 2^24 vectors, so n = 4 is the last degree it admits
GEOMETRY_CELLS = [
    (call, n, expected, budget)
    for call in ("quadric_points", "normal_form", "point_orbit")
    for n, expected, budget in ((1, "returned", 1.0), (4, "returned", 2.0),
                                (5, "refused", REFUSAL_BUDGET_S),
                                (16, "refused", REFUSAL_BUDGET_S))
] + [
    # the quadric's cap comes before the line group, whose 2q labels
    # would take seconds to check at n = 16
    ("point_orbit, degenerate-pair line", n, "refused", REFUSAL_BUDGET_S)
    for n in (5, 16)
] + [
    # the degenerate-pair line group has the known order 2q and checks
    # its labels only when they are listed
    ("line_group, degenerate-pair line", n, "returned", 1.0)
    for n in (8, 12)
] + [
    # n*dim = 12 passes the search guard, but the group has 1,974,067,200
    # elements: its order comes from theory, and its listing refuses
    ("enumerate_isometries, H+H+H", 2, "returned", 1.0),
    ("enumerate_isometries, H+H+H, elements", 2, "refused", REFUSAL_BUDGET_S),
] + [
    # the orthogonal line group is a plane group of known order, built at
    # every n; its listing passes the search guard up to n = 6, so
    # distance, which reads the elements, refuses from n = 7 on
    (call, n, expected, budget)
    for call, past_the_guard in (("line_group", ("returned", 1.0)),
                                 ("distance", ("refused", REFUSAL_BUDGET_S)))
    for n, expected, budget in ((1, "returned", 1.0), (6, "returned", 1.0),
                                (7,) + past_the_guard, (16,) + past_the_guard)
] + [
    # distance checks its line before the 2q labels are listed
    ("distance, no hypercycle", n, "bad input", REFUSAL_BUDGET_S)
    for n in (2, 16)
]


@pytest.mark.parametrize("call,n,expected,budget", GEOMETRY_CELLS,
                         ids=["n=%d %s" % (c[1], c[0]) for c in GEOMETRY_CELLS])
def test_geometry_calls_return_or_refuse(call, n, expected, budget):
    got = _run_cell(GEOMETRY_CALLS, call, n)
    assert got["outcome"] == expected
    assert got["seconds"] < budget
    if call == "enumerate_isometries, H+H+H":
        assert got["order"] == 1_974_067_200


# ROADMAP item 20: checking all 2q = 131,072 labels at build time would
# take tens of seconds at n = 16, so the group checks them only when they
# are listed; the cell is killed soon after its budget
def test_degenerate_pair_line_group_at_n_16():
    got = _run_cell(GEOMETRY_CALLS, "line_group, degenerate-pair line", 16,
                    kill_after=3.0)
    assert got["outcome"] == "returned"
    assert got["seconds"] < 2.0


# (n, expected outcome, budget in seconds); the restriction kernel's
# search on the 4-dim ambient passes the search guard up to n = 3
VIRTUAL_SPACE_CELLS = [(1, "returned", 1.0), (3, "returned", 1.0),
                       (4, "refused", REFUSAL_BUDGET_S),
                       (16, "refused", REFUSAL_BUDGET_S)]


@pytest.mark.parametrize("n,expected,budget", VIRTUAL_SPACE_CELLS,
                         ids=["n=%d" % c[0] for c in VIRTUAL_SPACE_CELLS])
def test_marked_span_viso_order_and_restriction(n, expected, budget):
    got = _run_cell(VIRTUAL_SPACE, n, "report")
    assert got["outcome"] == expected
    assert got["seconds"] < budget
    if expected == "returned":
        # restriction reaches all of Iso(U), as the paper claims
        assert got["report"] == {"surjective": True, "kernel_order": 2}


# the viso group's order comes from theory at every n: the ambient is
# elliptic and Q(k) != 0 on the line U-perp = span(k), so it is
# |O-(4, q)| / N(Q(k)) = 2 q^2 (q^4 - 1) / (q^3 + q) = 2 q (q^2 - 1)
@pytest.mark.parametrize("n", [4, 8, 16], ids=lambda n: "n=%d" % n)
def test_marked_span_viso_order_alone(n):
    got = _run_cell(VIRTUAL_SPACE, n, "order")
    assert got["outcome"] == "returned"
    assert got["seconds"] < 1.0
    q = 1 << n
    assert got["order"] == 2 * q * (q * q - 1)
