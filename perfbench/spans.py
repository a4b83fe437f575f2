"""Span tracing of the calls the benchmark makes into ``qbattery`` modules.

The tracer replaces each hooked function at every ``qbattery`` module
attribute that binds it (``bloch_decompose``, ``pair_kron`` and others are
re-imported into several modules) and on the owning class for methods.
Every call records a span (hook, start, end, parent span) in memory; the
spans are aggregated into per-layer ``calls`` / ``self_s`` / ``share``
metrics and written out when the traced pass ends.  A hook whose module or
attribute no longer exists is listed as missing and emits no metric.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "qbattery"


def _count_unitaries(counts, args, kwargs):
    counts["haar.HaarSampler.unitaries.count"] += int(kwargs.get("n", args[1] if len(args) > 1 else 0))


def _count_pair_kron(counts, args, kwargs):
    ua = args[0]
    k, d = ua.shape[0], ua.shape[1]
    counts["workstats.pair_kron.bytes_computed"] += k * d**4 * 16


def _count_conjugation(counts, args, kwargs):
    u = args[0]
    n, dim = u.shape[0], u.shape[1]
    # two complex D x D matmuls per pair, 8 real flops per complex multiply-add
    counts["workstats.conjugation_traces.gflop_computed"] += 2 * 8 * n * dim**3 / 1e9


def _count_values(counts, args, kwargs):
    counts["montecarlo.MomentAccumulator.add_chunk.values"] += int(np.size(args[1]))


# (layer name, module, attribute path, computed-count function or None).
# Methods are hooked on their class; DensityMatrix is hooked on
# __post_init__, where its validation runs.
HOOKS = (
    ("runner.run_histogram", "runner", "run_histogram", None),
    ("runner.run_point", "runner", "run_point", None),
    ("runner.run_variance_sweep", "runner", "run_variance_sweep", None),
    ("runner.run_tpm_sweep", "runner", "run_tpm_sweep", None),
    ("serialization.battery_from_spec", "serialization", "battery_from_spec", None),
    ("serialization.state_from_spec", "serialization", "state_from_spec", None),
    ("serialization.matrix_from_json", "serialization", "matrix_from_json", None),
    ("battery.battery_hamiltonian", "battery", "battery_hamiltonian", None),
    ("battery.ising_battery", "battery", "ising_battery", None),
    ("battery.gibbs_state", "battery", "gibbs_state", None),
    ("battery.thermal_mixture_state", "battery", "thermal_mixture_state", None),
    ("battery.spectral_decomposition", "battery", "spectral_decomposition", None),
    ("bloch.bloch_decompose", "bloch", "bloch_decompose", None),
    ("bloch.interaction_coeffs", "bloch", "interaction_coeffs", None),
    ("linalg.DensityMatrix", "linalg", "DensityMatrix.__post_init__", None),
    ("linalg.partial_transpose_min_eig", "linalg", "partial_transpose_min_eig", None),
    ("haar.HaarSampler.unitaries", "haar", "HaarSampler.unitaries", _count_unitaries),
    ("workstats.pair_kron", "workstats", "pair_kron", _count_pair_kron),
    ("workstats.conjugation_traces", "workstats", "conjugation_traces", _count_conjugation),
    ("workstats.work_sample_summary", "workstats", "work_sample_summary", None),
    ("workstats.analytic_work_variance", "workstats", "analytic_work_variance", None),
    ("montecarlo.MomentAccumulator.add_chunk", "montecarlo", "MomentAccumulator.add_chunk", _count_values),
    ("coincidence.mc_coincidence", "coincidence", "mc_coincidence", None),
    ("coincidence._coincidence_batch", "coincidence", "_coincidence_batch", None),
    ("coincidence.coincidence_bound", "coincidence", "coincidence_bound", None),
    ("tpm.mc_tpm_statistics", "tpm", "mc_tpm_statistics", None),
    ("tpm.instrument_average", "tpm", "instrument_average", None),
    ("tpm.tpm_variance_closed_form", "tpm", "tpm_variance_closed_form", None),
    ("tpm.tpm_spectral_stats", "tpm", "tpm_spectral_stats", None),
    ("tpm._zeta", "tpm", "_zeta", None),
    ("witness.detect_schmidt_number", "witness", "detect_schmidt_number", None),
)

COMPUTED_COUNTS = (
    "haar.HaarSampler.unitaries.count",
    "workstats.pair_kron.bytes_computed",
    "workstats.conjugation_traces.gflop_computed",
    "montecarlo.MomentAccumulator.add_chunk.values",
)


class Tracer:
    """Installs span-recording wrappers and aggregates the spans they record."""

    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
                if count is not None:
                    count(counts, args, kwargs)

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for idx, (name, module_name, path, count) in enumerate(HOOKS):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, original, count)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-hook calls, self time and share of the traced wall, plus counts."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(HOOKS)
        self_s = [0.0] * len(HOOKS)
        for sid, (idx, start, end, _) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += (end - start) - child[sid]
        out: dict[str, float] = {}
        for idx, (name, *_rest) in enumerate(HOOKS):
            if name in self.missing:
                continue
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
            out[f"{name}.share"] = self_s[idx] / traced_wall
        for key in COMPUTED_COUNTS:
            hook = key.rsplit(".", 1)[0]
            if hook not in self.missing:
                out[key] = self.counts[key]
        if "haar.HaarSampler.unitaries" not in self.missing:
            n = self.counts["haar.HaarSampler.unitaries.count"]
            out["haar.us_per_unitary"] = out["haar.HaarSampler.unitaries.self_s"] / n * 1e6 if n else 0.0
        unattributed = traced_wall - sum(self_s)
        out["unattributed.self_s"] = unattributed
        out["unattributed.share"] = unattributed / traced_wall
        return out

    def span_records(self) -> dict:
        return {
            "hooks": [name for name, *_rest in HOOKS],
            "missing": self.missing,
            "fields": ["hook", "start", "end", "parent"],
            "spans": self.spans,
        }
