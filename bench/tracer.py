"""Outside-in call tracer for the benchmark's traced runs.

`Tracer.install` replaces every public function and method of the
char2conf layer modules with a timing wrapper.  That includes the names
other char2conf modules bound with ``from .x import y`` (for example
``metric.enumerate_isometries`` or ``cli.run_suite``), so calls made
through those bindings are seen too.  `Tracer.uninstall` puts the
originals back.  The library itself is never edited: the wrappers exist
only in the process that installed them.

Every wrapped call keeps a frame on a stack so that self time can be
computed as the call's duration minus the time covered by its wrapped
children.  Calls to the hot element-level functions (field arithmetic,
vector helpers, ``QuadraticForm.q`` and friends) are only aggregated, as a
count plus summed and self time per function, because there are millions
of them per pass.  Every other call is also kept as a span record
(id, parent id, request id, name, start, end, label) in memory and written
out by `write_spans` when the run ends.

Functions defined inside the package but kept in data structures, such as
the ``oracle.SUITES`` table, are not rebound; their time counts as self
time of the wrapped caller, which lives in the same layer.
"""

import dataclasses
import functools
import inspect
import json
import sys
import time

LAYERS = ("gf2field", "linalg", "quadspace", "virtualspace", "confgeo",
          "metric", "oracle", "cli")

# Called per element, per vector or per candidate: aggregated, never kept
# as span records.  A trailing ".*" covers every method of a class.
HOT = {
    "gf2field.*",
    "linalg.zeros", "linalg.identity", "linalg.vec_add", "linalg.vec_scale",
    "linalg.dot", "linalg.mat_vec", "linalg.mat_mul", "linalg.mat_add",
    "linalg.transpose", "linalg.mat_col", "linalg.from_columns",
    "linalg.rank", "linalg.Echelon.*",
    "quadspace.QuadraticForm.q", "quadspace.QuadraticForm.b",
    "quadspace.QuadraticForm.check_vec", "quadspace.QuadraticForm.gram",
    "quadspace.Subspace.contains", "quadspace.IsomGroup.*",
    "confgeo.ProjPoint.*", "confgeo.as_point", "confgeo.incident",
    "confgeo.classify_cycle",
    "metric.OrtGroup.*", "metric.lambda_scalar",
}

# Span records kept per process (the first ones of the traced phase);
# later spans are counted, not stored, so the spans file stays a few MB.
MAX_SPANS = 20_000


def _is_hot(key):
    if key in HOT:
        return True
    parts = key.split(".")
    return any(".".join(parts[:i]) + ".*" in HOT for i in range(1, len(parts)))


class Tracer:
    """Per-function call statistics plus span records for one process.

    measures maps a function key to a function of its result whose value
    is summed per key (for example the number of points returned).
    labels maps a function key to the index of a positional argument whose
    value splits that function's total time (for example the suite name
    of ``oracle.run_suite``).
    """

    def __init__(self, measures=None, labels=None):
        self.measures = dict(measures or {})
        self.labels = dict(labels or {})
        self.stats = {}      # key -> [calls, total_s, self_s, measured]
        self.pairs = {}      # (parent key, key) -> calls
        self.labelled = {}   # (key, label) -> total_s
        self.raised = {layer: 0 for layer in LAYERS}
        self.spans = []
        self.spans_dropped = 0
        self.request = None
        self._stack = []
        self._next_span = 0
        self._patched = []   # (owner, attribute name, original value)

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap the public callables of every imported char2conf layer."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get("char2conf." + layer)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, "%s.%s" % (layer, name), obj)
                    wrapped[obj] = wrapper
                    self._patch(mod, name, wrapper)
                elif (inspect.isclass(obj)
                      and not dataclasses.is_dataclass(obj)
                      and not issubclass(obj, BaseException)):
                    self._install_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "char2conf"
                                   or mod_name.startswith("char2conf.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        return self

    def _install_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._wrap(layer, key, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrap(layer, key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(layer, key, raw))

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Restore every attribute `install` replaced."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        if inspect.isgeneratorfunction(fn):
            # the body runs while the caller iterates, interleaved with the
            # caller's own code, so only the calls are counted
            def counting(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counting, fn)

        tracer = self
        stack = self._stack
        pairs = self.pairs
        raised = self.raised
        clock = time.perf_counter
        record = not _is_hot(key)
        measure = self.measures.get(key)
        label_index = self.labels.get(key)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent[3] if parent else None
            # [child time, key, layer, nearest span id]
            frame = [0.0, key, layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[2] != layer:
                    raised[layer] += 1
                failed = True
                raise
            else:
                failed = False
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    pair = (parent[1], key)
                    pairs[pair] = pairs.get(pair, 0) + 1
                amount = measure(result) if measure and not failed else 0
                stat[3] += amount
                label = None
                if label_index is not None and len(args) > label_index:
                    label = str(args[label_index])
                    labelled = tracer.labelled
                    labelled[key, label] = labelled.get((key, label), 0) + dur
                if record:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (span_id, parent[3] if parent else None,
                             tracer.request, key, start, end, label))
                    else:
                        tracer.spans_dropped += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Aggregates as a JSON-ready dict (see `merge_snapshots`)."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "pairs": {"%s|%s" % k: v for k, v in self.pairs.items()},
            "labelled": {"%s|%s" % k: v for k, v in self.labelled.items()},
            "raised": dict(self.raised),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def span_records(self):
        for span_id, parent, request, key, start, end, label in self.spans:
            yield {"id": span_id, "parent": parent, "request": request,
                   "name": key, "start": start, "end": end, "label": label}


def merge_snapshots(snapshots):
    """Sum snapshots taken in several processes into one."""
    out = {"stats": {}, "pairs": {}, "labelled": {},
           "raised": {layer: 0 for layer in LAYERS},
           "spans": 0, "spans_dropped": 0}
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = out["stats"].get(k, [0] * len(v))
            out["stats"][k] = [a + b for a, b in zip(acc, v)]
        for section in ("pairs", "labelled", "raised"):
            for k, v in snap[section].items():
                out[section][k] = out[section].get(k, 0) + v
        out["spans"] += snap["spans"]
        out["spans_dropped"] += snap["spans_dropped"]
    return out


def write_spans(path, records):
    """Write span records as JSON lines."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
