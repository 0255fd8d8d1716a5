"""Brute-force verification of the library's load-bearing claims.

Every verifier enumerates its domain directly and recomputes ground
truth from raw field and form evaluations, but not yet always apart
from the code it audits: the arf suite calls `arf_invariant` on both
sides (ROADMAP item 9).  The orbits and lambda suites build their plane
groups by raw enumeration.  A report's failures list is
empty exactly when the claim held on everything enumerated; side
observations that are recorded rather than asserted go into notes.
Reports are mutable, unhashable VerificationReport records (see
`record`), each with its own notes dict.
"""

import itertools
import json
import random

from . import linalg
from .confgeo import build_geometry, replace_omega, transformation_class
from .errors import DegenerateOmegaError, TooLargeError
from .gf2field import Arf, GF2Field, check_degree
from .quadspace import QuadraticForm, arf_invariant
from .record import Record


class VerificationReport(Record):
    _fields = ("claim_id", "field_n", "cases_checked", "failures", "notes")

    def __init__(self, claim_id, field_n, cases_checked, failures,
                 notes=None):
        self.claim_id = claim_id
        self.field_n = field_n
        self.cases_checked = cases_checked
        self.failures = failures
        self.notes = {} if notes is None else notes

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        doc = {
            "claim_id": self.claim_id,
            "field_n": self.field_n,
            "cases_checked": self.cases_checked,
            "failures": self.failures,
        }
        if self.notes:
            doc["notes"] = self.notes
        return doc


def _check_cap(name, n):
    """Raise TooLargeError when degree n is past the suite's cap."""
    _, cap, refusal = SUITES[name]
    if n > cap:
        raise TooLargeError(refusal.format(cap=cap, n=n))


def report_lines(reports):
    """Serialize reports as one JSON document per line."""
    return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports)


def _gf2_rank(values):
    """Rank over GF(2) of ints read as bit vectors, by XOR elimination.

    Each basis int is kept under its top bit, so a new value is reduced
    by XOR until its top bit is free or it vanishes.
    """
    basis = {}
    for x in values:
        while x:
            top = x.bit_length()
            if top not in basis:
                basis[top] = x
                break
            x ^= basis[top]
    return len(basis)


def _h_image(field):
    return {field.add(x, field.mul(x, x)) for x in field.elements()}


def verify_lindex(field):
    """Scaling behavior of the image of x -> x + x^2.

    For lambda outside {0,1} the scaled image meets the original in a
    quarter-sized subgroup while the two together span everything; for
    lambda in {0,1} the image is preserved.  The image itself must be
    the root set of the polynomial summing the iterated squares.
    """
    _check_cap("lindex", field.n)
    h_img = _h_image(field)
    quarter = 2 ** field.n // 4
    failures = []
    cases = 0
    for lam in field.elements():
        cases += 1
        scaled = {field.mul(lam, h) for h in h_img}
        if lam in (0, 1):
            if not scaled <= h_img:
                failures.append({"lambda": lam, "issue": "image not kept"})
            continue
        meet = scaled & h_img
        if len(meet) != quarter:
            failures.append({"lambda": lam, "issue": "intersection size",
                             "got": len(meet), "want": quarter})
        union = scaled | h_img
        rank = _gf2_rank(union)
        if rank != field.n:
            failures.append({"lambda": lam, "issue": "union does not span",
                             "rank": rank})
    roots = set()
    for x in field.elements():
        cases += 1
        acc, s = x, x
        for _ in range(field.n - 1):
            s = field.mul(s, s)
            acc = field.add(acc, s)
        if acc == 0:
            roots.add(x)
    if roots != h_img:
        failures.append({"issue": "root set differs from image",
                         "roots": sorted(roots), "image": sorted(h_img)})
    return VerificationReport("h-image-scaling", field.n, cases, failures,
                              {"image_size": len(h_img)})


def _all_invertible(field, dim):
    rows = list(itertools.product(field.elements(), repeat=dim))
    return [m for m in itertools.product(rows, repeat=dim)
            if linalg.mat_inv(field, m) is not None]


def verify_arf_wellposed(field, dim, seed=None):
    """Arf class of a non-degenerate form survives any basis change.

    Dimension 2 is exhaustive; dimension 4 samples forms and basis
    changes from a fixed default seed (overridable for exploration).
    """
    if field.n * dim > 8:
        raise TooLargeError("basis sweep capped at degree times dimension 8")
    failures = []
    cases = 0
    if dim == 2:
        forms = [QuadraticForm(field, [[a, b], [0, c]])
                 for a in field.elements() for b in field.elements()
                 for c in field.elements() if b]
        mats = _all_invertible(field, 2)
    elif dim == 4:
        rng = random.Random(20240 + field.n if seed is None else seed)
        planes = [QuadraticForm(field, [[a, 1], [0, c]])
                  for a in field.elements() for c in field.elements()]
        forms = [rng.choice(planes).direct_sum(rng.choice(planes))
                 for _ in range(6)]
        mats = []
        while len(mats) < 120:
            m = tuple(tuple(rng.randrange(field.order) for _ in range(4))
                      for _ in range(4))
            if linalg.mat_inv(field, m) is not None:
                mats.append(m)
    else:
        raise ValueError("dimension must be 2 or 4")
    for form in forms:
        cls = field.arf_normalize(arf_invariant(form))
        for m in mats:
            cases += 1
            moved = field.arf_normalize(arf_invariant(form.transform(m)))
            if moved != cls:
                failures.append({"form": [list(r) for r in form.coeffs],
                                 "matrix": [list(r) for r in m],
                                 "before": cls, "after": moved})
    return VerificationReport("arf-basis-invariance", field.n, cases,
                              failures, {"dim": dim, "forms": len(forms),
                                         "matrices": len(mats)})


def _orbit_partition(field, elements, vectors):
    """Orbits of a matrix group acting on a vector set, by closure."""
    left = set(vectors)
    orbits = []
    while left:
        seed = next(iter(left))
        orbit = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for m in elements:
                w = linalg.mat_vec(field, m, v)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        orbits.append(orbit)
        left -= orbit
    return orbits


def _raw_sign_scalar(field, form, m):
    """Multiplier lambda with M^T A M = A + lambda Gram, or None."""
    a = form.coeffs
    n = linalg.mat_add(linalg.mat_mul(field, linalg.transpose(m),
                                      linalg.mat_mul(field, a, m)), a)
    gram = form.gram()
    cells = [(i, j) for i in range(form.dim) for j in range(form.dim)]
    i, j = next((i, j) for i, j in cells if gram[i][j])
    lam = field.div(n[i][j], gram[i][j])
    if any(n[i][j] != field.mul(lam, gram[i][j]) for i, j in cells):
        return None
    return lam


def _index2_subgroup_count(n):
    """Count index-2 subgroups of the pair group by exhaustion.

    Up to degree 3 this walks every half-sized subset containing the
    identity; beyond that it enumerates kernels of the nonzero additive
    characters, which is the same thing for an elementary abelian group.
    """
    pairs = [(a, e) for a in range(2 ** n) for e in (0, 1)]
    half = len(pairs) // 2
    if n <= 3:
        count = 0
        rest = [p for p in pairs if p != (0, 0)]
        for combo in itertools.combinations(rest, half - 1):
            group = {(0, 0)} | set(combo)
            if all((x[0] ^ y[0], x[1] ^ y[1]) in group
                   for x in group for y in group):
                count += 1
        return count
    kernels = set()
    for mask_a in range(2 ** n):
        for mask_e in (0, 1):
            if mask_a == 0 and mask_e == 0:
                continue
            ker = frozenset(
                p for p in pairs
                if (bin(p[0] & mask_a).count("1") + p[1] * mask_e) % 2 == 0)
            kernels.add(ker)
    return len(kernels)


def _plane_models(field):
    """(label, form, isometry group elements, nonzero vectors by Q) of
    the plane models x*y ("0") and x^2 + xy + e*y^2 ("e").

    The group is the sorted tuple of matrices [a | b] with Q(a) = Q(e1),
    Q(b) = Q(e2), Q(a + b) = Q(e1 + e2) and a0 b1 + a1 b0 != 0: those
    preserve Q on e1, e2 and B(e1, e2), so on every vector.
    """
    mul = field.mul
    models = []
    for label, form in (
            ("0", QuadraticForm(field, [[0, 1], [0, 0]])),
            ("e", QuadraticForm(field, [[1, 1], [0, field.arf_e()]]))):
        by_norm = {}
        for v in itertools.product(field.elements(), repeat=2):
            if any(v):
                by_norm.setdefault(form.q(v), []).append(v)
        q1, q2, q12 = (form.q(v) for v in ((1, 0), (0, 1), (1, 1)))
        elements = tuple(sorted(
            ((a0, b0), (a1, b1))
            for a0, a1 in by_norm.get(q1, ()) for b0, b1 in by_norm.get(q2, ())
            if mul(a0, b1) ^ mul(a1, b0)
            and form.q((a0 ^ b0, a1 ^ b1)) == q12))
        models.append((label, form, elements, by_norm))
    return models


def verify_ort_orbits(field):
    """Orbit sizes of the plane group with nontrivial Arf class.

    Every orbit of nonzero vectors must have q + 1 points.  The notes
    record which norm classes the index-2 subgroup acts transitively
    on, for both plane models, and how many index-2 subgroups the
    degenerate pair group really has.
    """
    _check_cap("orbits", field.n)
    q = 2 ** field.n
    failures = []
    models = _plane_models(field)
    nonzero = [(x, y) for x in field.elements() for y in field.elements()
               if x or y]
    orbits = _orbit_partition(field, models[1][2], nonzero)
    for orbit in orbits:
        if len(orbit) != q + 1:
            failures.append({"orbit_size": len(orbit), "want": q + 1,
                             "sample": sorted(orbit)[0]})
    notes = {"orbit_sizes": sorted(len(o) for o in orbits)}
    transitive = {}
    for label, form, elements, by_norm in models:
        plus = [m for m in elements if _raw_sign_scalar(field, form, m) == 0]
        for norm in range(1, field.order):
            stratum = set(by_norm.get(norm, ()))
            if not stratum:
                continue
            orbit = _orbit_partition(field, plus, stratum)[0]
            transitive["%s/%d" % (label, norm)] = (orbit == stratum)
    notes["sign_kernel_transitive_on_norm"] = transitive
    count = _index2_subgroup_count(field.n)
    notes["pair_group_index2_subgroups"] = count
    notes["pair_group_index2_unique"] = (count == 1)
    cases = len(nonzero) + sum(1 for _ in transitive)
    return VerificationReport("anisotropic-orbit-sizes", field.n, cases,
                              failures, notes)


def verify_lambda_constraint(field):
    """The sign scalar of every plane isometry lies in {0, 1}.

    Also records which of the two candidate relations x + x^2 = 0 and
    x + x^2 = 1 the observed scalars satisfy.
    """
    _check_cap("lambda", field.n)
    failures = []
    cases = 0
    counts = {}
    relation_zero = relation_one = True
    for label, form, elements, _ in _plane_models(field):
        for m in elements:
            cases += 1
            lam = _raw_sign_scalar(field, form, m)
            if lam is None:
                failures.append({"model": label,
                                 "matrix": [list(r) for r in m],
                                 "issue": "difference not a multiple"})
                continue
            counts["%s/%d" % (label, lam)] = counts.get(
                "%s/%d" % (label, lam), 0) + 1
            if lam not in (0, 1):
                failures.append({"model": label,
                                 "matrix": [list(r) for r in m],
                                 "lambda": lam})
            x = field.add(lam, field.mul(lam, lam))
            relation_zero &= (x == 0)
            relation_one &= (x == 1)
    notes = {"lambda_counts": counts,
             "relation_x_plus_x2_eq_0": relation_zero,
             "relation_x_plus_x2_eq_1": relation_one}
    return VerificationReport("sign-scalar-range", field.n, cases, failures,
                              notes)


def _direct_arf_ratio(field, form, omega, x):
    b = form.b(omega, x)
    if b == 0:
        return Arf.infinity()
    return Arf.finite(field.div(field.mul(form.q(x), form.q(omega)),
                                field.mul(b, b)))


def verify_transformation(field):
    """Marker replacement: closed-form predictions against recomputation.

    Sweeps every replacement pair over geometries built for all nine
    class pairs (and both total Arf classes), plus seeds with distinct
    finite nonzero values so the ratio kind is represented.  Failures
    mean the prediction disagreed with the value recomputed on the
    moved geometry.  The notes tabulate, per source kind, how often
    each quantity happened to stay fixed; those are observations, not
    assertions.
    """
    _check_cap("transformation", field.n)
    targets = [Arf.finite(field.arf_e()), Arf.infinity(), Arf.finite(0)]
    seeds = [(p, l) for p in targets for l in targets]
    nonzero = [x for x in field.elements() if x]
    seeds.extend((Arf.finite(a), Arf.finite(b))
                 for a, b in [(a, b) for a in nonzero for b in nonzero
                              if a != b][:6])
    failures = []
    cases = 0
    skipped = 0
    table = {}
    for arf_p, arf_l in seeds:
        for arf_v in (Arf.finite(0), Arf.finite(field.arf_e())):
            g = build_geometry(field, arf_p, arf_l, arf_v=arf_v)
            a_p0 = _direct_arf_ratio(field, g.form, g.omega.rep, g.p.rep)
            a_l0 = _direct_arf_ratio(field, g.form, g.omega.rep, g.l.rep)
            kind0 = transformation_class(g).kind
            row = table.setdefault(kind0, {
                "checked": 0, "l_unchanged": 0, "p_unchanged": 0,
                "pair_unchanged": 0, "rho_preserved": 0,
                "class_pair_preserved": 0})
            for alpha in field.elements():
                for beta in field.elements():
                    try:
                        moved, pred_l, pred_p = replace_omega(g, alpha, beta)
                    except DegenerateOmegaError:
                        skipped += 1
                        continue
                    cases += 1
                    truth_l = _direct_arf_ratio(
                        field, moved.form, moved.omega.rep, moved.l.rep)
                    truth_p = _direct_arf_ratio(
                        field, moved.form, moved.omega.rep, moved.p.rep)
                    base = {"alpha": alpha, "beta": beta,
                            "source": [str(a_p0), str(a_l0)]}
                    if pred_l != truth_l:
                        failures.append(dict(
                            base, member="L", predicted=str(pred_l),
                            recomputed=str(truth_l)))
                    if pred_p != truth_p:
                        failures.append(dict(
                            base, member="P", predicted=str(pred_p),
                            recomputed=str(truth_p)))
                    row["checked"] += 1
                    l_same = truth_l == a_l0
                    p_same = truth_p == a_p0
                    row["l_unchanged"] += l_same
                    row["p_unchanged"] += p_same
                    row["pair_unchanged"] += l_same and p_same
                    finite = [a for a in (a_p0, a_l0, truth_p, truth_l)
                              if not a.is_infinity and a.value != 0]
                    if len(finite) == 4:
                        rho0 = field.div(a_l0.value, a_p0.value)
                        rho1 = field.div(truth_l.value, truth_p.value)
                        row["rho_preserved"] += rho0 == rho1
                    pair0 = (field.arf_normalize(a_p0),
                             field.arf_normalize(a_l0))
                    pair1 = (field.arf_normalize(truth_p),
                             field.arf_normalize(truth_l))
                    row["class_pair_preserved"] += pair0 == pair1
    notes = {"invariance": table, "skipped_degenerate": skipped}
    return VerificationReport("marker-replacement-formula", field.n, cases,
                              failures, notes)


def _verify_arf(field, seed):
    """The arf suite at one degree: dimension 2, and 4 while 4n <= 8."""
    reports = [verify_arf_wellposed(field, 2, seed=seed)]
    if 4 * field.n <= 8:
        reports.append(verify_arf_wellposed(field, 4, seed=seed))
    return reports


def _unsampled(verifier):
    """A one-report verifier that samples nothing, as a suite verifier."""
    return lambda field, seed: [verifier(field)]


# suite name -> (verifier, cap, refusal past the cap); the verifier maps
# (field, seed) to one degree's reports, and the default degrees are 1..cap
SUITES = {
    "lindex": (_unsampled(verify_lindex), 8,
               "image scaling check capped at degree {cap}"),
    "arf": (_verify_arf, 4,
            "arf suite capped at degree {cap}: at degree {n} no form "
            "dimension keeps degree times dimension within 8"),
    "orbits": (_unsampled(verify_ort_orbits), 4,
               "orbit partition capped at degree {cap}"),
    "lambda": (_unsampled(verify_lambda_constraint), 4,
               "sign scalar sweep capped at degree {cap}"),
    "transformation": (_unsampled(verify_transformation), 3,
                       "replacement sweep capped at degree {cap}"),
}


def suite_degrees(name, degrees=None):
    """The degrees run_suite(name, degrees) runs, checked before any work.

    None means the suite's own range.  Raises ValueError for an unknown
    suite, then UnsupportedDegreeError for a degree that is not an int,
    then TooLargeError for a degree past the suite's cap, then
    UnsupportedDegreeError for a degree no field has, before any report.
    A range is checked without building it.
    """
    if name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s"
                         % (name, ", ".join(sorted(SUITES))))
    cap = SUITES[name][1]
    if degrees is None:
        degrees = range(1, cap + 1)
    if isinstance(degrees, range):
        # only a range's first degree past the cap can decide the cap
        # check: its first one if descending, else found by index
        # arithmetic, which (unlike len) works on any range
        deciders = (degrees[:1] if degrees.step < 0 else degrees[
            max(0, (cap - degrees.start) // degrees.step + 1):][:1])
    else:
        degrees = deciders = list(degrees)
        for n in degrees:
            if type(n) is not int:
                check_degree(n)  # refuses it before any cap comparison
    for n in deciders:
        _check_cap(name, n)
    for n in degrees:  # now all <= cap: a range stops at its first n < 1
        check_degree(n)
    return list(degrees)


def run_suite(name, degrees=None, seed=None):
    """All reports for one named suite over the given degrees."""
    degrees = suite_degrees(name, degrees)
    verifier = SUITES[name][0]
    return [report for n in degrees
            for report in verifier(GF2Field(n), seed)]


def run_all(max_degree=3):
    """Every suite at once, trimmed to its own degree cap."""
    reports = []
    for name, (_, cap, _) in sorted(SUITES.items()):
        reports.extend(run_suite(name, range(1, min(cap, max_degree) + 1)))
    return reports
