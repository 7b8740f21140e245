"""Outside-in tracing of one detbundle CLI invocation.

The tracer wraps public functions of the package (and the numpy.linalg
kernels below them) at run time, records one span per call and restores
every original afterwards, so nothing under ``src/`` knows it is traced.
Spans are ``[name, start, end, parent]`` rows kept in memory and written
once when the traced command returns; ``layer_metrics`` turns them into the
per-layer metrics of ``BENCHMARK.json``.

The span name's first component is the layer (``models``, ``grassmann``,
``curvature``, ``detline``, ``opcalc``, ``verify``, ``cli``, ``linalg``).
A function imported by name into another module (``from .x import f``) is
re-bound in every module of the package that holds it, because patching
only its home module would miss those callers.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

import numpy as np

LINALG_KERNELS = ("eigh", "svd", "solve", "det", "slogdet", "inv", "norm")

LAYERS = ("cli", "verify", "curvature", "grassmann", "models", "detline", "opcalc", "linalg")

# (module, attribute path, span name).  Several targets may share a span
# name; their time is then reported together.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.config"),
    ("cli", "build_family", "cli.config"),
    ("cli", "build_interface", "cli.build_interface"),
    ("cli", "_write_json", "cli.report_io"),
    ("cli", "_write_rows", "cli.report_io"),
    ("grassmann", "DiscreteForm.to_csv", "cli.report_io"),
    ("verify", "run_suite", "verify.suite"),
    ("curvature", "additivity_residual", "curvature.additivity"),
    ("curvature", "connection_one_form", "curvature.connection"),
    ("curvature", "curvature_of", "curvature.curvature_of"),
    ("curvature", "f_function", "curvature.f_function"),
    ("curvature", "f_function_field", "curvature.f_function"),
    ("curvature", "pair_links", "curvature.chern"),
    ("curvature", "plaquette_winding", "curvature.chern"),
    ("curvature", "chern_number", "curvature.chern"),
    ("curvature", "chern_of_section", "curvature.chern"),
    ("curvature", "chern_of_pair", "curvature.chern"),
    ("curvature", "pair_overlap_field", "curvature.pair_fields"),
    ("curvature", "pair_metric_field", "curvature.pair_fields"),
    ("curvature", "restricted_shift_field", "curvature.pair_fields"),
    ("curvature", "patching_residuals", "curvature.patching_residuals"),
    ("curvature", "curvature_families_formula", "curvature.families_formula"),
    ("curvature", "swap_trace_identity", "curvature.trace_identities"),
    ("curvature", "composition_trace_identity", "curvature.trace_identities"),
    ("grassmann", "ProjectionSection.build", "grassmann.build"),
    ("grassmann", "ProjectionSection.frames", "grassmann.frames"),
    ("grassmann", "ProjectionSection.complement", "grassmann.complement"),
    ("grassmann", "section_links", "grassmann.links"),
    ("grassmann", "nearest_projection", "grassmann.nearest_projection"),
    ("grassmann", "spectral_projection", "grassmann.spectral_projection"),
    ("grassmann", "graph_projection", "grassmann.graph_projection"),
    ("grassmann", "toeplitz_inverse", "grassmann.toeplitz_inverse"),
    ("grassmann", "curvature_trace_form", "grassmann.curvature_trace_form"),
    ("grassmann", "second_fundamental_form", "grassmann.second_fundamental_form"),
    ("grassmann", "DiscreteForm.coboundary", "grassmann.coboundary"),
    ("models", "Dirac1DFamily.transfer_field", "models.transfer"),
    ("models", "Dirac1DFamily.calderon_section", "models.section"),
    ("models", "Dirac1DFamily.monodromy_field", "models.monodromy"),
    ("models", "rotated_interface", "models.section"),
    ("models", "vortex_interface", "models.section"),
    ("models", "bloch_section", "models.section"),
    ("models", "CylinderFamily.conjugated_section", "models.section"),
    ("models", "CylinderFamily.aps_section", "models.section"),
    ("models", "CylinderFamily.boundary_operator_field", "models.boundary_operator"),
    ("models", "smoothing_perturbation", "models.smoothing"),
    ("detline", "coordinate", "detline.coordinate"),
    ("detline", "chart_coordinate", "detline.chart_coordinate"),
    ("detline", "transition", "detline.transition"),
    ("detline", "sew", "detline.sew"),
    ("detline", "sew_gauge_factor", "detline.sew"),
    ("detline", "canonical_det", "detline.canonical_det"),
    ("detline", "inner_product", "detline.inner_product"),
    ("detline", "metric_norm_sq", "detline.metric"),
    ("detline", "pair_metric_sq", "detline.metric"),
    ("opcalc", "fredholm_det", "opcalc.fredholm_det"),
    ("opcalc", "trace_norm", "opcalc.norm"),
    ("opcalc", "operator_norm", "opcalc.norm"),
    ("opcalc", "schatten_profile", "opcalc.norm"),
    ("opcalc", "wedge_trace", "opcalc.wedge_trace"),
    ("opcalc", "compound_matrix", "opcalc.compound_matrix"),
)


def _matrix_count(args, kwargs, kernel: str) -> int:
    """Matrices in one kernel call: the batch size of its first argument.

    For ``norm`` with a 2-tuple ``axis`` the stack is every other axis; with
    an integer ``axis`` it counts vectors; a plain ``norm(x)`` counts one.
    """
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    if kernel == "norm":
        axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
        if axis is None:
            return 1
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        return math.prod(n for i, n in enumerate(shape)
                         if i not in {ax % len(shape) for ax in axes})
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


class Tracer:
    """Span recorder plus the bookkeeping of every patched attribute."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = before(args, kwargs) if before is not None else None
            rec = [label or name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        self._wrappers.add(id(value))
        setattr(owner, attr, value)

    def _hooks(self, span: str):
        """Extra bookkeeping for the spans whose metrics need more than time."""
        if span == "verify.suite":
            return (lambda a, k: "verify.suite." + str(a[0] if a else k["name"])), None
        if span == "opcalc.fredholm_det":
            def before(a, k):
                method = a[1] if len(a) > 1 else k.get("method", "dense")
                if method == "series":
                    self._bump("opcalc.series_calls")
            return before, None
        if span == "curvature.connection":
            def after(conn):
                healthy = np.asarray(conn.healthy)
                self._bump("curvature.chart_evals", int(healthy.size))
                self._bump("curvature.chart_first_uses", int(healthy.any(axis=0).sum()))
            return None, after
        return None, None

    def install(self) -> None:
        pkg = importlib.import_module("detbundle")
        modules = [pkg] + [importlib.import_module(f"detbundle.{m}")
                           for m in ("opcalc", "grassmann", "detline", "models",
                                     "curvature", "verify", "cli")]
        for kernel in LINALG_KERNELS:
            def before(a, k, kernel=kernel):
                self._bump(f"linalg.{kernel}_mats", _matrix_count(a, k, kernel))
            self._set(np.linalg, kernel,
                      self.wrap(f"linalg.{kernel}", getattr(np.linalg, kernel), before))
        for mod_name, path, span in TARGETS:
            mod = importlib.import_module(f"detbundle.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            before, after = self._hooks(span)
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self.wrap(span, raw.__func__, before, after)))
            elif owner_name:
                self._set(owner, attr, self.wrap(span, raw, before, after))
            else:
                wrapped = self.wrap(span, raw, before, after)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._set(m, key, wrapped)
        # The potential is a closure made per family, so it is wrapped as
        # each family is constructed.
        family = importlib.import_module("detbundle.models").Dirac1DFamily
        init = family.__dict__["__init__"]

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            obj.potential = self.wrap("models.potential", obj.potential)

        self._set(family, "__init__", traced_init)

    def restore(self) -> bool:
        """Put every original back; True when nothing traced is left bound."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        owners = {id(owner): owner for owner, _, _ in self._patched}.values()
        self._patched.clear()
        return not any(id(v) in self._wrappers for o in owners for v in vars(o).values())


def _outermost(spans) -> list[int]:
    """Indices of spans with no ancestor of the same name."""
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def merge(traces: list[dict]) -> dict:
    """Concatenate the traces of several processes into one."""
    spans, counts = [], {}
    for tr in traces:
        base = len(spans)
        spans.extend([n, s, e, p + base if p >= 0 else -1] for n, s, e, p in tr["spans"])
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts}


SUITES = ("opcalc", "grassmann", "detline", "models", "curvature")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one (merged) trace.

    ``<span>_s`` is inclusive time: the summed duration of the outermost
    spans of that name, so recursion is not counted twice.  ``<layer>.self_s``
    is each layer's self time, a span's duration minus its children's.
    """
    spans, counts = trace["spans"], trace["counts"]
    dur = [e - s for _, s, e, _ in spans]
    child = [0.0] * len(spans)
    kids: dict[int, list[int]] = {}
    for i, (_, _, _, p) in enumerate(spans):
        if p >= 0:
            child[p] += dur[i]
            kids.setdefault(p, []).append(i)
    incl: dict[str, float] = {}
    for i in _outermost(spans):
        incl[spans[i][0]] = incl.get(spans[i][0], 0.0) + dur[i]
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for i, (name, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own = dur[i] - child[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        self_by_layer[name.split(".", 1)[0]] += own
    misses = sum(1 for i, (name, *_rest) in enumerate(spans)
                 if name == "models.transfer"
                 and any(spans[c][0] == "models.potential" for c in kids.get(i, ())))

    m: dict[str, float] = {
        "models.transfer_s": incl.get("models.transfer", 0.0),
        "models.transfer_calls": misses,
        "models.potential_s": incl.get("models.potential", 0.0),
        "models.potential_calls": calls.get("models.potential", 0),
        "models.section_s": incl.get("models.section", 0.0),
        "models.smoothing_s": incl.get("models.smoothing", 0.0),
        "models.smoothing_calls": calls.get("models.smoothing", 0),
        "grassmann.build_s": incl.get("grassmann.build", 0.0),
        "grassmann.build_calls": calls.get("grassmann.build", 0),
        "grassmann.frames_s": incl.get("grassmann.frames", 0.0),
        "grassmann.frames_calls": calls.get("grassmann.frames", 0),
        "grassmann.links_s": incl.get("grassmann.links", 0.0),
        "grassmann.nearest_projection_s": incl.get("grassmann.nearest_projection", 0.0),
        "curvature.additivity_s": incl.get("curvature.additivity", 0.0),
        "curvature.additivity_self_s": self_by_name.get("curvature.additivity", 0.0),
        "curvature.connection_s": incl.get("curvature.connection", 0.0),
        "curvature.connection_calls": calls.get("curvature.connection", 0),
        "curvature.curvature_of_s": incl.get("curvature.curvature_of", 0.0),
        "curvature.f_function_s": incl.get("curvature.f_function", 0.0),
        "curvature.chern_s": incl.get("curvature.chern", 0.0),
        "curvature.chart_first_use_frac": (
            counts.get("curvature.chart_first_uses", 0) / counts["curvature.chart_evals"]
            if counts.get("curvature.chart_evals") else 0.0),
        "detline.coordinate_s": incl.get("detline.coordinate", 0.0),
        "detline.coordinate_calls": calls.get("detline.coordinate", 0),
        "detline.transition_s": incl.get("detline.transition", 0.0),
        "detline.sew_s": incl.get("detline.sew", 0.0),
        "opcalc.fredholm_det_s": incl.get("opcalc.fredholm_det", 0.0),
        "opcalc.fredholm_det_calls": calls.get("opcalc.fredholm_det", 0),
        "opcalc.series_calls": counts.get("opcalc.series_calls", 0),
        "opcalc.norm_s": incl.get("opcalc.norm", 0.0),
    }
    for suite in SUITES:
        m[f"verify.suite_s.{suite}"] = incl.get(f"verify.suite.{suite}", 0.0)
    m["cli.config_s"] = incl.get("cli.config", 0.0)
    m["cli.report_io_s"] = incl.get("cli.report_io", 0.0)
    for kernel in LINALG_KERNELS:
        m[f"linalg.{kernel}_calls"] = calls.get(f"linalg.{kernel}", 0)
        m[f"linalg.{kernel}_mats"] = counts.get(f"linalg.{kernel}_mats", 0)
        m[f"linalg.{kernel}_s"] = incl.get(f"linalg.{kernel}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.spans"] = len(spans)
    return m


def run_traced(argv: list[str], trace_path: str) -> int:
    """Run ``detbundle <argv>`` under the tracer and write the trace as JSON."""
    import json

    tracer = Tracer()
    tracer.install()
    try:
        main = importlib.import_module("detbundle.cli").main
        rc = main(argv)
    finally:
        restored = tracer.restore()
    with open(trace_path, "w") as fh:
        fh.write(json.dumps({"spans": tracer.spans, "counts": tracer.counts,
                             "missing": tracer.missing, "restored": restored}))
    if tracer.missing:
        print("untraced (not found): " + ", ".join(tracer.missing), file=sys.stderr)
    return rc
