"""Spans around calls into qmod's layers, installed from outside the package.

Wrappers replace the names each consumer module imported (for example
`qmod.eta.mul`, the binding `eta_quotient_expand` calls), not only the
defining module's, because a call looks the name up in the caller's
globals.  A binding that is missing, say after a rename, is skipped and
its layer metrics are absent from the result instead of failing the run.

Spans live in memory as [id, parent, layer, t0, t1, excluded, count], and
are written out and reduced to per-layer metrics when the job ends.  Time
spent computing counts is excluded from every open span, so counting does
not inflate the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("cli", "verify", "eta", "qseries", "operators", "spans")

CHECK_IDS = ("valuation", "limit", "congruence", "hecke_decomposition",
             "theta_psi", "residue", "nondivisibility", "twist_consistency",
             "support")


def _terms(f) -> int:
    """Stored (nonzero) terms of a series."""
    return len(f.support())


def _count_terms_in(args, kwargs, result) -> dict:
    return {"terms_in": _terms(args[0]) + _terms(args[1])}


def _count_series_out(args, kwargs, result) -> dict:
    return {"coeffs": _terms(result),
            "bits_out": sum(abs(c).bit_length() for _, c in result.items())}


def _count_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[0])}


def _count_form(args, kwargs, result) -> dict:
    return {"form": args[0]}


# (consumer module, attribute, layer, counter).  The layer names the module
# that defines the function, so every binding of one function shares a layer.
BINDINGS = [
    ("qmod.cli", "main", "cli.main", None),
    ("qmod.cli", "build_H", "spans.build_H", None),
    ("qmod.verify", "FormCache.series", "verify.FormCache.series", None),
    ("qmod.verify", "catalog_form", "eta.catalog_form", _count_form),
    ("qmod.verify", "eta_quotient_expand", "eta.eta_quotient_expand",
     _count_series_out),
    ("qmod.verify", "build_H", "spans.build_H", None),
    ("qmod.verify", "build_psi", "spans.build_psi", None),
    ("qmod.verify", "hecke", "operators.hecke", None),
    ("qmod.verify", "apply_U", "operators.apply_U", None),
    ("qmod.verify", "twist", "operators.twist", None),
    ("qmod.verify", "theta", "operators.theta", None),
    ("qmod.verify", "mul", "qseries.mul", _count_terms_in),
    ("qmod.verify", "padic_valuation_range",
     "qseries.padic_valuation_range", None),
    ("qmod.eta", "eta_quotient_expand", "eta.eta_quotient_expand",
     _count_series_out),
    ("qmod.eta", "mul", "qseries.mul", _count_terms_in),
    ("qmod.eta", "div", "qseries.div", _count_terms_in),
    ("qmod.spans", "eta_quotient_expand", "eta.eta_quotient_expand",
     _count_series_out),
    ("qmod.spans", "spanning_family", "spans.spanning_family", None),
    ("qmod.spans", "echelonize", "spans.echelonize", _count_rows),
    ("qmod.spans", "mul", "qseries.mul", _count_terms_in),
] + [
    (module, f"check_{cid}", f"verify.check_{cid}", None)
    for module in ("qmod.verify", "qmod.cli") for cid in CHECK_IDS
]


def _resolve(module: str, attr: str):
    """(owner object, final attribute name), or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records one span per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.layers: set[str] = set()
        self.missing: list[str] = []

    def install(self):
        """Wrap every binding in BINDINGS that exists."""
        for module, attr, layer, counter in BINDINGS:
            target = _resolve(module, attr)
            if target is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, name = target
            setattr(owner, name, self._wrap(layer, getattr(owner, name),
                                             counter))
            self.layers.add(layer)

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, layer,
                   0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
                spent = time.perf_counter() - rec[4]
                for sid in stack:
                    spans[sid][5] += spent
            return result

        return wrapper

    def write(self, path: str):
        """One JSON line per span, in call order."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Raw per-layer sums of the spans so far (see reduce_spans)."""
        return reduce_spans(self.spans, self.layers)


class FirstRequestProbe:
    """Notes whether the first `FormCache.series` request of a job expands
    a form, then removes itself, so untraced runs pay for one call only."""

    def __init__(self):
        self.expanded: bool | None = None
        self._series = _resolve("qmod.verify", "FormCache.series")
        self._catalog = _resolve("qmod.verify", "catalog_form")

    def install(self):
        if self._series is None or self._catalog is None:
            return
        (cls, s_name), (mod, c_name) = self._series, self._catalog
        series, catalog = getattr(cls, s_name), getattr(mod, c_name)
        probe = self

        def catalog_probe(*args, **kwargs):
            probe.expanded = True
            return catalog(*args, **kwargs)

        def series_probe(*args, **kwargs):
            setattr(cls, s_name, series)
            setattr(mod, c_name, catalog_probe)
            probe.expanded = False
            try:
                return series(*args, **kwargs)
            finally:
                setattr(mod, c_name, catalog)

        setattr(cls, s_name, series_probe)


# ---------------------------------------------------------------------------
# reduction

_COUNTERS = {
    "qseries.mul": ("terms_in",),
    "qseries.div": ("terms_in",),
    "eta.eta_quotient_expand": ("coeffs", "bits_out"),
    "spans.echelonize": ("rows",),
}

# Which stats each layer reports; every layer also feeds its module's
# busy_s and self_s.
_REPORTED = {
    "qseries.mul": ("calls", "busy_s", "terms_in"),
    "qseries.div": ("calls", "busy_s", "terms_in"),
    "qseries.padic_valuation_range": ("busy_s",),
    "eta.eta_quotient_expand": ("calls", "busy_s", "coeffs", "bits_out"),
    "eta.catalog_form": ("busy_s",),
    "verify.FormCache.series": ("calls", "hits", "expansions"),
    "spans.build_H": ("busy_s",),
    "spans.build_psi": ("busy_s",),
    "spans.spanning_family": ("busy_s",),
    "spans.echelonize": ("busy_s", "rows"),
    "operators.hecke": ("busy_s",),
    "operators.apply_U": ("busy_s",),
    "operators.twist": ("busy_s",),
    "operators.theta": ("busy_s",),
    "cli.main": ("self_s",),
    **{f"verify.check_{cid}": ("calls", "self_s") for cid in CHECK_IDS},
}

# Metrics that count work; they must repeat exactly between runs.
COUNT_STATS = ("calls", "hits", "expansions", "terms_in", "coeffs",
               "bits_out", "rows", "useful_ratio")

UNITS = {"calls": "count", "hits": "count", "expansions": "count",
         "terms_in": "count", "coeffs": "count", "bits_out": "bit",
         "rows": "count", "busy_s": "s", "self_s": "s"}


def layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric a traced run reports,
    apart from the run-level trace.wall_s and trace.overhead_s."""
    out = [(f"{layer}.{stat}", UNITS[stat])
           for layer, stats in _REPORTED.items() for stat in stats]
    out.append(("verify.cache.useful_ratio", "ratio"))
    out += [(f"{module}.{stat}", "s") for module in MODULES
            for stat in ("busy_s", "self_s")]
    return out


def reduce_spans(spans: list[list], layers: set[str]) -> dict:
    """Raw per-layer sums of one job: {layer: {stat: value}}, plus
    {module: {"busy_s": ...}} and the distinct forms expanded through the
    cache under "verify.cache".

    A layer's busy_s is the union of its spans (a span nested in one of the
    same layer counts once); a module's busy_s likewise counts the spans
    not nested in another span of the module, so it includes the layers
    the module calls.  self_s is duration minus the child spans' durations,
    and the self times of all layers add up to the traced run's time.
    """
    dur = [s[4] - s[3] - s[5] for s in spans]
    child_time = [0.0] * len(spans)
    children = [0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += dur[s[0]]
            children[s[1]] += 1

    def nested(s, same) -> bool:
        p = s[1]
        while p is not None:
            if same(spans[p][2]):
                return True
            p = spans[p][1]
        return False

    series = "verify.FormCache.series"
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                   **{c: 0 for c in _COUNTERS.get(layer, ())}}
           for layer in layers}
    out.update({layer.split(".")[0]: {"busy_s": 0.0} for layer in layers})
    if series in out:
        out[series].update(hits=0, expansions=0)
    forms = set()
    for s in spans:
        acc = out[s[2]]
        acc["calls"] += 1
        acc["self_s"] += dur[s[0]] - child_time[s[0]]
        if not nested(s, lambda layer: layer == s[2]):
            acc["busy_s"] += dur[s[0]]
        module = s[2].split(".")[0]
        if not nested(s, lambda layer: layer.startswith(module + ".")):
            out[module]["busy_s"] += dur[s[0]]
        for key, value in (s[6] or {}).items():
            if key in acc:
                acc[key] += value
        if s[2] == series and children[s[0]] == 0:
            acc["hits"] += 1
        if s[2] == "eta.catalog_form" and nested(
                s, lambda layer: layer == series):
            out[series]["expansions"] += 1
            forms.add(s[6]["form"])
    out["verify.cache"] = {"distinct_forms": len(forms)}
    return out


def first_request_expanded(spans: list[list]) -> bool | None:
    """Whether the first cache request of a traced job expanded a form.
    Calls are sequential, so the spans that start before the request ends
    are the ones it made."""
    for s in spans:
        if s[2] == "verify.FormCache.series":
            return any(t[2] == "eta.catalog_form" and t[3] < s[4]
                       for t in spans[s[0] + 1:])
    return None


def merge(jobs: list[dict]) -> dict:
    """Sum the raw per-layer sums of the jobs of one run."""
    total: dict[str, dict] = {}
    for job in jobs:
        for layer, stats in job.items():
            acc = total.setdefault(layer, {})
            for key, value in stats.items():
                acc[key] = acc.get(key, 0) + value
    return total


def finish(raw: dict) -> dict:
    """Per-layer metrics of one run from its merged raw sums.  Layers that
    were never installed are absent."""
    metrics = {}
    for layer, stats in _REPORTED.items():
        if layer not in raw:
            continue
        for stat in stats:
            metrics[f"{layer}.{stat}"] = raw[layer][stat]
    cache = raw.get("verify.FormCache.series")
    if cache and cache["expansions"]:
        metrics["verify.cache.useful_ratio"] = (
            raw["verify.cache"]["distinct_forms"] / cache["expansions"])
    for module in MODULES:
        if module in raw:
            metrics[f"{module}.busy_s"] = raw[module]["busy_s"]
            metrics[f"{module}.self_s"] = sum(
                v["self_s"] for k, v in raw.items()
                if k.startswith(module + ".") and "self_s" in v)
    return metrics
