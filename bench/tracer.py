"""Outside-in span tracer for the v2ibeam layers.

Wraps the public functions of each library module at every name they are
bound under: module globals (including ``from x import f`` copies in other
modules and the package namespace) and class attributes for methods. Each
call records a span (name, start, end, parent span, unit id) in flat arrays;
nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# module -> public callables timed as layer spans. Methods use "Class.method".
TARGETS: dict[str, tuple[str, ...]] = {
    "array_channel": ("FadingProcess.step", "channel_vector"),
    "motion": ("step_truth", "transition_matrices", "LongTermAccumulator.advance"),
    "ekf": ("Tracker.step", "Tracker.design_combiner", "predict", "jacobian",
            "kalman_gain", "update"),
    "sounding": ("optimal_combiner", "hybrid_approximation", "sound_uplink",
                 "SteeringDictionary.build"),
    "accel": ("estimate_alpha", "gate_alpha"),
    "codebook": ("divide_regions", "position_pdf_to_bp", "fit_codeword", "validate",
                 "save_codebook", "load_codebook"),
    "selector": ("extrapolate", "direction_distribution", "ideal_bp", "select"),
    "harness": ("run_experiment", "run_trial", "summarize", "records_to_csv",
                "summaries_to_csv"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Ratios read from return values: metric -> (span, accumulator of one result).
OBSERVED = {
    "sounding.optimal_combiner.fallback_frac":
        ("sounding.optimal_combiner", lambda out: float(out.fallback)),
    "sounding.hybrid_approximation.correlation_mean":
        ("sounding.hybrid_approximation", lambda out: float(out.correlation)),
    "accel.gate_alpha.accept_frac": ("accel.gate_alpha", lambda out: float(bool(out))),
    "harness.records_to_csv.bytes":
        ("harness.records_to_csv", lambda out: float(len(out.encode("utf-8")))),
}
SUMMED = {"harness.records_to_csv.bytes"}  # totals; the other ratios are means per call


HIGHER_IS_BETTER = {"sounding.hybrid_approximation.correlation_mean",
                    "accel.gate_alpha.accept_frac"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in SPAN_NAMES:
        specs += [(f"{span}.calls", "count"), (f"{span}.us_per_call", "us"),
                  (f"{span}.self_s", "s")]
    specs += [(f"{mod}.self_share", "ratio") for mod in TARGETS]
    specs += [(name, "bytes" if name in SUMMED else "ratio") for name in OBSERVED]
    specs += [("unattributed", "s"), ("traced_wall_s", "s"),
              ("tracing_overhead_frac", "ratio")]
    return [(name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
            for name, unit in specs]


def module_self_s(metrics: dict[str, float]) -> dict[str, float]:
    """Self seconds per module, summed over its traced functions."""
    return {mod: sum(metrics[f"{mod}.{fn}.self_s"] for fn in fns) for mod, fns in TARGETS.items()}


class Tracer:
    """Install with ``with Tracer() as tr:``; spans are kept in memory.

    ``unit`` is the id of the workload unit (trial chunk, step, codeword) the
    caller is working on; each span records the value current at its start.
    """

    def __init__(self):
        self.unit = -1
        self.name_idx = array("i")
        self.parent = array("i")
        self.unit_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.observed = {name: 0.0 for name in OBSERVED}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "v2ibeam" or n.startswith("v2ibeam."))]
        originals = {}
        for idx, span in enumerate(SPAN_NAMES):
            mod_name, attr = span.split(".", 1)
            mod = sys.modules.get(f"v2ibeam.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(meth) if owner is not None else None
            if raw is None:
                self.missing.append(span)
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrap(idx, span, fn)
            if owner_name:  # method: the class object is shared by every importer
                self._patch(owner, meth, staticmethod(wrapped) if is_static else wrapped)
            else:
                originals[id(fn)] = (fn, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, key, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    def _patch(self, owner, key, new) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, idx: int, span: str, fn):
        stack = self._stack
        observe = [(metric, f) for metric, (s, f) in OBSERVED.items() if s == span]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pos = len(self.start)
            self.name_idx.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.unit_id.append(self.unit)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(pos)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[pos] = t0
                self.end[pos] = t1
            for metric, f in observe:
                self.observed[metric] += f(out)
            return out

        return wrapper

    # -- analysis -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over a traced window of wall_s seconds.

        Self time is a span's duration minus its direct children's durations;
        whatever no top-level span covers is ``unattributed``, so module self
        times plus ``unattributed`` sum to wall_s.
        """
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        n = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=n)
        self_by_name = np.bincount(names, weights=self_t, minlength=n)
        out: dict[str, float] = {}
        order = np.argsort(names, kind="stable")
        bounds = np.searchsorted(names[order], np.arange(n + 1))
        for i, span in enumerate(SPAN_NAMES):
            sel = dur[order[bounds[i]:bounds[i + 1]]]
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.us_per_call"] = float(np.median(sel)) * 1e6 if len(sel) else 0.0
            out[f"{span}.self_s"] = float(self_by_name[i])
        for mod, self_s in module_self_s(out).items():
            out[f"{mod}.self_share"] = self_s / wall_s
        for metric, (span, _) in OBSERVED.items():
            c = out[f"{span}.calls"]
            total = self.observed[metric]
            out[metric] = total if metric in SUMMED else (total / c if c else 0.0)
        out["unattributed"] = wall_s - float(dur[~nested].sum())
        out["traced_wall_s"] = wall_s
        return out

    def write_spans(self, path: str, t_origin: float) -> int:
        """Write spans as gzip CSV, times in seconds from t_origin."""
        lines = ["span,name,start_s,end_s,parent,unit"]
        for i in range(len(self.start)):
            lines.append(f"{i},{SPAN_NAMES[self.name_idx[i]]},{self.start[i] - t_origin:.9f},"
                         f"{self.end[i] - t_origin:.9f},{self.parent[i]},{self.unit_id[i]}")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("\n".join(lines) + "\n")
        return len(self.start)
