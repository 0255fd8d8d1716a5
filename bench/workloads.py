"""The four benchmark workloads: field, geometry, verify and cli.

Each workload turns a seed into one pass, a fixed list of requests, and
the worker repeats that pass until its time is up.  A workload has:

* ``setup()``: imports char2conf, constructs every field it uses and warms
  the lazy caches (the first ``solve_quadratic`` and ``arf_e`` per field);
  this is what ``setup_s`` times;
* ``requests(rng)``: the pass, made from the seed by the benchmark alone;
* ``run(request)``: the timed library work, returning (output, operations);
* ``check(request, output)``: an untimed check of one output, returning an
  error message or None.

Outputs are plain data so that they can be compared between passes and
folded into the digest.  Parameters come from ``workloads.json``, which also
records why each workload exists and what it leaves out.
"""

import json
import os
import subprocess
import sys
import tempfile

import reference as ref

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def load_records():
    with open(os.path.join(BENCH_DIR, "workloads.json")) as fh:
        return json.load(fh)


def child_env():
    """Environment of every interpreter the benchmark starts.

    Bytecode caches stay on, so that no timed set-up includes compiling,
    and the hash seed is fixed, so that runs differ only by their --seed.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _warm(field):
    field.solve_quadratic(0)
    field.arf_e()


def _arf(spec):
    from char2conf.gf2field import Arf
    return Arf.infinity() if spec is None else Arf.finite(spec)


class FieldWorkload:
    """Seeded batches of element operations at several degrees."""

    name = "field"

    def __init__(self, params, seed):
        self.params = params
        self.moduli = {n: ref.default_modulus(n) for n in params["degrees"]}

    def setup(self):
        from char2conf.gf2field import GF2Field
        self.fields = {n: GF2Field(n) for n in self.params["degrees"]}
        for f in self.fields.values():
            _warm(f)

    def requests(self, rng):
        # every batch holds the same multiset of (degree, operation) pairs,
        # so that the cost of a pass hardly depends on the seed
        kinds = [(n, op) for n in self.params["degrees"]
                 for op, weight in sorted(self.params["ops"].items())
                 for _ in range(weight)]
        batches = []
        for _ in range(self.params["batches_per_pass"]):
            rng.shuffle(kinds)
            batch = []
            for n, op in kinds:
                a = rng.randrange(1, 1 << n)
                args = (a, rng.randrange(1, 1 << n)) if op in ("mul", "div") \
                    else (a,)
                batch.append((n, op, args))
            batches.append(tuple(batch))
        return batches

    def run(self, batch):
        fields = self.fields
        out = []
        for n, op, args in batch:
            # looked up per call so that a traced run sees the wrapped method
            out.append(getattr(fields[n], op)(*args))
        return out, len(batch)

    def check(self, batch, out):
        for (n, op, args), r in zip(batch, out):
            m = self.moduli[n]
            a = args[0]
            if op == "mul":
                ok = r == ref.mul(a, args[1], m)
            elif op == "div":
                ok = ref.mul(r, args[1], m) == a
            elif op == "inv":
                ok = ref.mul(r, a, m) == 1
            elif op == "trace":
                ok = r == ref.trace(a, n, m)
            elif op == "sqrt":
                ok = ref.mul(r, r, m) == a
            elif op == "h":
                ok = r == a ^ ref.mul(a, a, m)
            else:  # solve_quadratic: roots of x^2 + x = a, if trace(a) = 0
                if ref.trace(a, n, m):
                    ok = r is None
                else:
                    ok = (r is not None and r[1] == r[0] ^ 1 and r[0] < r[1]
                          and r[0] ^ ref.mul(r[0], r[0], m) == a)
            if not ok:
                return "GF(2^%d) %s%r gave %r" % (n, op, args, r)
        return None


# Arf(P) and Arf(L) classes of the nine geometries, elliptic first.
PAIRS = [(p, l) for p in ("e", "inf", "0") for l in ("e", "inf", "0")]


class GeometryWorkload:
    """One seeded geometry per request, walked through every geometry layer."""

    name = "geometry"

    def __init__(self, params, seed):
        self.params = params

    def setup(self):
        from char2conf import confgeo, errors, metric, virtualspace
        from char2conf.gf2field import GF2Field
        self.cg, self.mt, self.vs, self.err = (confgeo, metric, virtualspace,
                                               errors)
        self.fields = {int(n): GF2Field(int(n)) for n in self.params["mix"]}
        for f in self.fields.values():
            _warm(f)

    def requests(self, rng):
        # the class pairs are fixed per degree, so that every seed asks for
        # the same mix of geometries; the seed picks the values inside each
        # class, the total Arf value, the moves, the line and the points
        reqs = []
        for n_text, count in sorted(self.params["mix"].items()):
            n = int(n_text)
            order = 1 << n
            m = ref.default_modulus(n)
            by_class = {"inf": [None]}
            for x in range(order):
                by_class.setdefault(ref.arf_class(x, n, m), []).append(x)
            for j in range(count):
                cls_p, cls_l = PAIRS[j % len(PAIRS)]
                cls_v = ("0", "e")[j % 2]
                reqs.append({
                    "n": n, "arf_p": rng.choice(by_class[cls_p]),
                    "arf_l": rng.choice(by_class[cls_l]),
                    "arf_v": rng.choice(by_class[cls_v]),
                    "moves": [(rng.randrange(order), rng.randrange(order))
                              for _ in range(self.params["moves"])],
                    "picks": [rng.getrandbits(32) for _ in range(3)],
                })
        rng.shuffle(reqs)
        return reqs

    def run(self, req):
        cg, mt, err = self.cg, self.mt, self.err
        f = self.fields[req["n"]]
        g = cg.build_geometry(f, _arf(req["arf_p"]), _arf(req["arf_l"]),
                              arf_v=_arf(req["arf_v"]))
        out = {"class": cg.classify_geometry(g).name}
        tc = cg.transformation_class(g)
        out["transformation"] = [tc.kind, str(tc.arf_p), str(tc.arf_l),
                                 tc.rho, tc.arf_class]
        moves = []
        for alpha, beta in req["moves"]:
            try:
                moved, pred_l, pred_p = cg.replace_omega(g, alpha, beta)
            except err.DegenerateOmegaError:
                moves.append(None)  # Q(new Omega) = 0: refused by design
                continue
            moves.append([str(pred_l), str(pred_p),
                          str(cg.arf_of(moved, moved.l)),
                          str(cg.arf_of(moved, moved.p))])
        out["moves"] = moves
        points = cg.quadric_points(g)
        out["points"] = len(points)
        out["normal_form"] = cg.normal_form(g)

        # a real, independent, non-ideal line and two real non-ideal
        # points on it, all taken from this geometry's own quadric points
        omega, p, l = g.omega, g.p, g.l
        lines = []
        for c in points:
            if cg.incident(g, l, c) and cg.incident(g, omega, c):
                flags = cg.classify_cycle(g, c)
                if flags.independent and not flags.point:
                    lines.append(c)
        pick = req["picks"]
        ell = lines[pick[0] % len(lines)]
        on_line = [c for c in points
                   if cg.incident(g, p, c) and cg.incident(g, omega, c)
                   and not cg.incident(g, l, c) and cg.incident(g, ell, c)]
        p1 = on_line[pick[1] % len(on_line)]
        p2 = on_line[pick[2] % len(on_line)]
        group = mt.line_group(g, ell)
        plus = mt.ort_plus(group)
        pair = mt.distance(g, ell, p1, p2).pair
        out["line"] = {"rep": ell.rep, "p1": p1.rep, "p2": p2.rep,
                       "kind": group.kind, "order": group.order,
                       "plus_order": plus.order, "on_line": len(on_line),
                       "pair": pair}
        if req["n"] <= self.params["extras_max_n"]:
            orbit = mt.point_orbit(g, ell, _arf(0))
            out["orbit"] = [c.rep for c in orbit]
            out["virtual"] = self._virtual(g)
        return out, 1

    def _virtual(self, g):
        """Minimal embedding of the marked span and its restriction map."""
        vs, err = self.vs, self.err
        u_form = g.form.restrict([g.omega.rep, g.p.rep, g.l.rep])
        try:
            space = vs.embed_minimal(u_form)
        except err.NotEmbeddableError:
            return "not-embeddable"  # Gram kernel of dimension >= 2
        doc = {"ambient_dim": space.ambient.dim,
               "viso_order": vs.viso_group(space).order}
        try:
            doc["restriction"] = vs.restriction_surjectivity(space)
        except err.PreconditionViolatedError:
            doc["restriction"] = "radical"  # U itself is degenerate
        return doc

    def check(self, req, out):
        n = req["n"]
        q = 1 << n
        m = ref.default_modulus(n)
        want = ref.CLASS_NAMES[(ref.arf_class(req["arf_p"], n, m),
                                ref.arf_class(req["arf_l"], n, m))]
        if out["class"] != want:
            return "class %s, want %s" % (out["class"], want)
        for move in out["moves"]:
            if move is not None and move[:2] != move[2:]:
                return "replace_omega predicted %s, recomputed %s" % (
                    move[:2], move[2:])
        size = ref.quadric_size(q, ref.arf_class(req["arf_v"], n, m))
        if out["points"] != size:
            return "%d quadric points, want %d" % (out["points"], size)
        if out["normal_form"] is None:
            return "normal_form found no witness"
        g = self.cg.build_geometry(
            self.fields[n], _arf(req["arf_p"]), _arf(req["arf_l"]),
            arf_v=_arf(req["arf_v"]))
        gram = g.form.transform(out["normal_form"]).gram()
        blocks = tuple(tuple(int(i // 2 == j // 2 and i != j)
                             for j in range(6)) for i in range(6))
        if gram != blocks:
            return "normal form Gram matrix %r" % (gram,)
        line = out["line"]
        orders = {"degenerate-pair": {2 * q},
                  "orthogonal": {2 * (q - 1), 2 * (q + 1)}}
        if line["order"] not in orders[line["kind"]] \
                or 2 * line["plus_order"] != line["order"]:
            return "line group %s of order %d, oriented part %d" % (
                line["kind"], line["order"], line["plus_order"])
        group = self.mt.ort_plus(self.mt.line_group(g, line["rep"]))
        images = {ref.normalize(
            ref.mat_vec(group.ambient_matrix(x), line["p1"], m), n, m)
            for x in line["pair"]}
        if tuple(line["p2"]) not in images:
            return "distance pair does not carry p1 to p2"
        if "orbit" in out:
            if len(out["orbit"]) != line["plus_order"] \
                    or len(out["orbit"]) != line["on_line"]:
                return "point orbit of size %d" % len(out["orbit"])
            virtual = out["virtual"]
            if isinstance(virtual, dict) \
                    and isinstance(virtual["restriction"], dict) \
                    and not virtual["restriction"]["surjective"]:
                return "restriction to U is not surjective"
        return None


class VerifyWorkload:
    """oracle.run_suite over a fixed list of (suite, degree) pairs."""

    name = "verify"

    def __init__(self, params, seed):
        self.params = params
        self.seed = seed  # also the sampling seed of the arf suite

    def setup(self):
        from char2conf import oracle
        from char2conf.gf2field import GF2Field
        self.oracle = oracle
        degrees = sorted({n for _, n in self.params["pairs"]})
        self.fields = [GF2Field(n) for n in degrees]
        for f in self.fields:
            _warm(f)

    def requests(self, rng):
        pairs = [tuple(p) for p in self.params["pairs"]]
        rng.shuffle(pairs)
        return pairs

    def run(self, pair):
        suite, n = pair
        reports = self.oracle.run_suite(suite, [n], seed=self.seed)
        return (self.oracle.report_lines(reports),
                sum(r.cases_checked for r in reports))

    def check(self, pair, out):
        docs = [json.loads(line) for line in out.splitlines()]
        if not docs or any(d["failures"] or d["cases_checked"] < 1
                           for d in docs):
            return "%s n=%d reported failures" % pair
        return None


class CliWorkload:
    """A seeded sequence of ``python -m char2conf.cli`` processes."""

    name = "cli"

    def __init__(self, params, seed):
        self.params = params
        self.traced = False
        self.snapshots = []
        self.workdir = None
        self.classes = {}  # geometry file -> expected class name

    def setup(self):
        from char2conf import cli  # noqa: F401  (import cost is set-up)
        from char2conf.confgeo import build_geometry
        from char2conf.gf2field import GF2Field
        self.build_geometry = build_geometry
        self.fields = {n: GF2Field(n) for n in self.params["build_degrees"]}
        for f in self.fields.values():
            _warm(f)
        self.workdir = tempfile.mkdtemp(prefix=".bench-cli-", dir=ROOT)

    def close(self):
        if self.workdir:
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)
            self.workdir = None

    def _geometry_file(self, name, n, arf_p, arf_l, arf_v):
        from char2conf.cli import parse_arf
        f = self.fields[n]
        g = self.build_geometry(f, parse_arf(f, arf_p), parse_arf(f, arf_l),
                                arf_v=parse_arf(f, arf_v))
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(g.to_json(), fh)
        m = ref.default_modulus(n)
        classes = tuple(ref.arf_class(int(s[4:]), n, m) if s.startswith("raw:")
                        else s for s in (arf_p, arf_l))
        self.classes[path] = ref.CLASS_NAMES[classes]
        return path

    def requests(self, rng):
        p = self.params

        def element(n, nonzero=False):
            return str(rng.randrange(1 if nonzero else 0, 1 << n))

        def arf_spelling(n):
            k = rng.randrange(4)
            return ("0", "e", "inf", "raw:%s" % element(n))[k]

        argvs = [["table"]]
        for n in p["field_degrees"]:
            op = rng.choice(p["field_ops"])
            args = [element(n, True), element(n, True)] \
                if op in ("add", "mul", "div") else [element(n, True)]
            argvs.append(["field", "--n", str(n), op] + args)
        n = p["solve_degree"]
        m = ref.default_modulus(n)
        for _ in range(p["solves"]):
            x = rng.randrange(1 << n)
            # x + x^2 always has trace 0, so the root table is needed
            argvs.append(["field", "--n", str(n), "solve",
                          str(x ^ ref.mul(x, x, m))])
        for i in range(p["builds"]):
            n = rng.choice(p["build_degrees"])
            spec = [arf_spelling(n), arf_spelling(n),
                    rng.choice(["0", "e", "raw:" + element(n)])]
            argvs.append(["build", "--n", str(n), "--arf-p", spec[0],
                          "--arf-l", spec[1], "--arf-v", spec[2], "--json"])
            path = self._geometry_file("g%d.json" % i, n, *spec)
            argvs.append(["classify", path])
            if i == 0:
                form = os.path.join(self.workdir, "form.json")
                with open(path) as src, open(form, "w") as dst:
                    json.dump(json.load(src)["form"], dst)
                argvs.append(["arf", form])
        d = p["distance"]
        path = self._geometry_file("readme.json", 1, "e", "e", "0")
        argvs.append(["distance", path, "--line", d["line"], "--p1", d["p1"],
                      "--p2", d["p2"]])
        argvs.append(["verify", "--suite", p["verify"][0],
                      "--n", p["verify"][1]])
        return argvs

    def run(self, argv):
        env = child_env()
        if self.traced:
            out_path = os.path.join(self.workdir, "trace.json")
            env["BENCH_TRACE_OUT"] = out_path
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py")]
        else:
            cmd = [sys.executable, "-m", "char2conf.cli"]
        proc = subprocess.run(cmd + argv, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        if self.traced:
            with open(out_path) as fh:
                self.snapshots.append(json.load(fh))
            os.remove(out_path)
        return [proc.returncode, proc.stdout], 1

    def check(self, argv, out):
        import contextlib
        import io
        from char2conf import cli
        with contextlib.redirect_stderr(io.StringIO()):
            want = cli.run(argv)
        stdout = want.payload + "\n" if want.payload else ""
        if out != [0, stdout] or want.exit_code != 0:
            return "%s: exit %d, stdout %r" % (" ".join(argv[:2]), out[0],
                                              out[1][:200])
        if argv[0] == "classify":
            want = self.classes[argv[1]]
            if out[1].split()[0] != want:
                return "classify printed %r, want %s" % (out[1], want)
        return None


WORKLOADS = {w.name: w for w in (FieldWorkload, GeometryWorkload,
                                 VerifyWorkload, CliWorkload)}
