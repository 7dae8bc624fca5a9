"""Spans around framesphere's public functions, recorded from outside.

The tracer replaces each traced function with a wrapper in every framesphere
module that holds a reference to it.  Modules bind names with
``from .x import y``, so patching only the defining module would miss the
calls made through ``framesphere.frame``, ``framesphere.cli`` and the
package namespace.  ``BiDegreePolynomial.evaluate_batch`` is a method and is
patched on its class.

Each span is ``(name, start, end, parent, op, attrs)``: ``parent`` is the
index of the enclosing span or -1, and ``op`` the operation the span belongs
to ("setup" or an operation index).  Spans stay in memory until
``dump`` writes them out.
"""

import functools
import importlib
import inspect
import json
import math
import time

MODULES = (
    "framesphere",
    "framesphere.cli",
    "framesphere.frame",
    "framesphere.harmonics",
    "framesphere.measure",
    "framesphere.polynomials",
)


def _build_basis_attrs(tracer, bound, result):
    n, (p, q) = bound["n"], tuple(bound["j"])
    miss = id(result) not in tracer.seen_bases
    tracer.seen_bases[id(result)] = result
    return {
        "miss": int(miss),
        "ambient_monomials": math.comb(n + p - 1, p) * math.comb(n + q - 1, q) if miss else 0,
        "basis_dim": result.dim if miss else 0,
    }


def _character_attrs(tracer, bound, result):
    samples = len(result)
    return {"samples": samples, "sample_dims": samples * bound["space"].dim}


def _evaluate_attrs(tracer, bound, result):
    return {"point_terms": len(result) * len(bound["self"].terms)}


def _route(bound):
    return "exact" if bound.get("n_samples") is None else "mc"


# (module, attribute, span name or callable(bound) -> name, attrs(tracer, bound, result))
TARGETS = (
    ("framesphere.harmonics", "build_basis", "harmonics.build_basis", _build_basis_attrs),
    ("framesphere.harmonics", "character_batch", "harmonics.character_batch", _character_attrs),
    ("framesphere.harmonics", "project_basis", "harmonics.project_basis", None),
    ("framesphere.polynomials", "inner_product", "polynomials.inner_product", None),
    ("framesphere.measure", "sphere_sample_batch", "measure.sphere_sample_batch",
     lambda t, b, r: {"points": b["count"]}),
    ("framesphere.measure", "haar_sample_batch", "measure.haar_sample_batch",
     lambda t, b, r: {"matrices": b["count"]}),
    ("framesphere.measure", "mc_integrate_sphere", "measure.mc_integrate",
     lambda t, b, r: {"samples": b["n_samples"]}),
    ("framesphere.measure", "mc_integrate_group", "measure.mc_integrate",
     lambda t, b, r: {"samples": b["n_samples"]}),
    ("framesphere.frame", "frame_residual", lambda b: f"frame.frame_residual.{_route(b)}", None),
    ("framesphere.frame", "reconstruct_moment", lambda b: f"frame.reconstruct_moment.{_route(b)}", None),
    ("framesphere.frame", "reconstruct_harmonic", lambda b: f"frame.reconstruct_harmonic.{_route(b)}", None),
    ("framesphere.frame", "basis_weight_sums", "frame.basis_weight_sums", None),
    ("framesphere.frame", "hermitian_check", "frame.hermitian_check", None),
    ("framesphere.frame", "gleason_additivity_check", "frame.gleason_additivity_check", None),
    ("framesphere.cli", "read_operator_json", "cli.read_input", None),
    ("framesphere.cli", "read_samples_csv", "cli.read_input", None),
)


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup"
        self.seen_bases = {}  # keeps returned bases alive, so ids stay unique
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span without attributes."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, {})

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index, attrs):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = attrs
        self.stack.pop()

    def _wrap(self, original, name, attrs):
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if (attrs or callable(name)) else None
            index = tracer._open(name(bound) if callable(name) else name)
            extra = {}
            try:
                result = original(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(tracer, bound, result)
                return result
            finally:
                tracer._close(index, extra)

        return wrapper

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        polynomials = importlib.import_module("framesphere.polynomials")
        cls = polynomials.BiDegreePolynomial
        method = cls.__dict__["evaluate_batch"]
        self._patches.append((cls, "evaluate_batch", method))
        setattr(cls, "evaluate_batch",
                self._wrap(method, "polynomials.evaluate_batch", _evaluate_attrs))
        for home, attr, name, attrs in TARGETS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, name, attrs)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


# ---------------------------------------------------------------------------
# turning spans into per-layer metrics
# ---------------------------------------------------------------------------

# Per-layer metrics; build_basis has its own set in per_layer_metrics.
# busy_s counts only the outermost span of a name, so recursion is not counted twice.
BUSY = (
    "harmonics.character_batch",
    "polynomials.evaluate_batch",
    "polynomials.inner_product",
    "measure.sphere_sample_batch",
    "measure.mc_integrate",
    "measure.haar_sample_batch",
    "frame.basis_weight_sums",
    "frame.hermitian_check",
    "frame.gleason_additivity_check",
    "cli.read_input",
)
SELF = (
    "harmonics.project_basis",
    "frame.frame_residual.exact",
    "frame.frame_residual.mc",
    "frame.reconstruct_moment.exact",
    "frame.reconstruct_moment.mc",
    "frame.reconstruct_harmonic.exact",
    "frame.reconstruct_harmonic.mc",
    "cli.main",
)
CALLS = (
    "harmonics.character_batch",
    "harmonics.project_basis",
    "polynomials.evaluate_batch",
    "polynomials.inner_product",
    "measure.sphere_sample_batch",
    "measure.mc_integrate",
    "measure.haar_sample_batch",
)
COUNTS = {
    "harmonics.build_basis": ("ambient_monomials", "basis_dim"),
    "harmonics.character_batch": ("samples", "sample_dims"),
    "polynomials.evaluate_batch": ("point_terms",),
    "measure.sphere_sample_batch": ("points",),
    "measure.mc_integrate": ("samples",),
    "measure.haar_sample_batch": ("matrices",),
}


def layer_totals(spans):
    """Sum calls, busy, self time and counts per span name over ``spans``.

    ``spans`` may come from several processes; parents index into the list
    each span was recorded in, so each process's list is passed separately
    and the results added by ``merge``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    totals = {}
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        if not isinstance(op, int):
            continue
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "miss_busy_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            t["busy_s"] += end - start
        for key, value in (attrs or {}).items():
            t[key] = t.get(key, 0) + value
        if (attrs or {}).get("miss"):
            t["miss_busy_s"] += end - start
    return totals


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def merge(a, b):
    out = {name: dict(values) for name, values in a.items()}
    for name, values in b.items():
        target = out.setdefault(name, {})
        for key, value in values.items():
            target[key] = target.get(key, 0) + value
    return out


def per_layer_metrics(totals, n_ops):
    """Per-operation layer metrics, named ``<module>.<function>.<measure>``."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0) / n_ops

    metrics = {}
    basis = "harmonics.build_basis"
    calls = totals.get(basis, {}).get("calls", 0)
    misses = totals.get(basis, {}).get("miss", 0)
    metrics[f"{basis}.calls"] = get(basis, "calls")
    metrics[f"{basis}.misses"] = get(basis, "miss")
    metrics[f"{basis}.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    metrics[f"{basis}.miss_busy_s"] = get(basis, "miss_busy_s")
    for name in CALLS:
        metrics[f"{name}.calls"] = get(name, "calls")
    for name, keys in COUNTS.items():
        for key in keys:
            metrics[f"{name}.{key}"] = get(name, key)
    for name in BUSY:
        metrics[f"{name}.busy_s"] = get(name, "busy_s")
    for name in SELF:
        metrics[f"{name}.self_s"] = get(name, "self_s")
    return metrics


def descendant_busy(spans, root_prefix):
    """Time under spans named ``root_prefix*``, split by descendant name.

    Returns ``{root name: {"total_s": .., descendant name: busy_s, ..}}`` over
    timed operations; a descendant nested in a same-named one is counted once.
    """
    out = {}
    for s in spans:
        if not isinstance(s[4], int) or not s[0].startswith(root_prefix):
            continue
        entry = out.setdefault(s[0], {"total_s": 0.0})
        entry["total_s"] += s[2] - s[1]
    for s in spans:
        if not isinstance(s[4], int):
            continue
        parent, outer = s[3], True
        root = None
        while parent >= 0:
            pname = spans[parent][0]
            if pname == s[0]:
                outer = False
            if pname.startswith(root_prefix):
                root = pname
            parent = spans[parent][3]
        if root is not None and outer:
            out[root][s[0]] = out[root].get(s[0], 0.0) + s[2] - s[1]
    return out
