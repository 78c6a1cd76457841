"""Span tracer that instruments scrollres from outside, without editing it.

`Tracer.install()` replaces each traced public function with a wrapper, in
every loaded ``scrollres`` module that holds it under some name (for
example ``resolution`` imports ``kernel_mod`` directly, so both
``ffield.kernel_mod`` and ``resolution.kernel_mod`` are rebound).  Methods
are rebound on their class.  Every call then records a span: label, start,
end, self time (duration minus the time of its child spans), parent span
and a few call details.  Each thread keeps its own span stack, so the
survey's worker threads do not charge each other's time.

Tiny hot helpers (the ``CoxPoly`` methods and similar) are deliberately not
wrapped: at tens of thousands of calls the wrapper would distort the very
self times it reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    span_id: int
    parent_id: "int | None"
    label: str
    start: float
    end: float
    self_s: float
    error: "str | None"
    info: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _shape(args, _kwargs, _result) -> dict:
    rows, cols = np.shape(args[0])
    return {"rows": int(rows), "cols": int(cols)}


def _points(_args, _kwargs, result) -> dict:
    return {"points": len(result) if result is not None else 0}


def _survey(args, kwargs, _result) -> dict:
    workers = kwargs.get("workers", args[3] if len(args) > 3 else None)
    return {"workers": workers}


def _survey_seed(_args, _kwargs, result) -> dict:
    if result is None:
        return {"ok": False, "failures": []}
    failures = [] if result["ok"] else [result["error"].split(":", 1)[0]]
    return {"ok": bool(result["ok"]), "failures": failures}


def _pipeline_run(_args, _kwargs, result) -> dict:
    if result is None:
        return {"accepted": False, "failures": []}
    failures = [
        a["outcome"].split(":", 1)[0]
        for a in result.get("curveAttempts", []) if a["outcome"] != "ok"
    ]
    return {"accepted": "error" not in result, "failures": failures}


#: (module, attribute or Class.method, call-detail function or None)
TARGETS = (
    ("ffield", "rref_mod", _shape),
    ("ffield", "kernel_mod", _shape),
    ("ffield", "det_mod", None),
    ("ffield", "Echelon.add", None),
    ("plane_curve", "construct_nodal_nonic", None),
    ("plane_curve", "sample_smooth_points", _points),
    ("scroll", "canonical_coordinates", None),
    ("scroll", "point_values", None),
    ("scroll", "monomial_value_matrix", None),
    ("resolution", "SliceContext.ideal_slice", None),
    ("resolution", "ideal_generator_step", None),
    ("resolution", "next_syzygies", None),
    ("resolution", "betti_table", None),
    ("k3_syzygy", "linear_syzygy_space", None),
    ("k3_syzygy", "syzygy_scheme", None),
    ("k3_syzygy", "pfaffian_reconstruct", None),
    ("k3_syzygy", "k3_betti_shape", None),
    ("quartic_net", "quartic_net", None),
    ("quartic_net", "residual_degree", None),
    ("quartic_net", "image_quartic", None),
    ("quartic_net", "fit_gamma", None),
    ("quartic_net", "gamma_singular_point", None),
    ("quartic_net", "fit_gamma_map", None),
    ("quartic_net", "singular_fiber_parameters", None),
    ("quartic_net", "macaulay_resultant_smooth", None),
    ("lattice", "derive_hprime_entries", None),
    ("lattice", "second_polarization_entries", None),
    ("lattice", "enum_classes", None),
    ("lattice", "is_ample", None),
    ("lattice", "is_nef", None),
    ("lattice", "is_basepoint_free", None),
    ("lattice", "dimension_audit", None),
    ("pipeline", "lattice_suite", None),
    ("pipeline", "build_chain", None),
    ("pipeline", "run_pipeline", _pipeline_run),
    ("pipeline", "survey_seed", _survey_seed),
    ("pipeline", "sample_survey", _survey),
)


class _Frame:
    __slots__ = ("span_id", "start", "child_s")

    def __init__(self, span_id, start):
        self.span_id, self.start, self.child_s = span_id, start, 0.0


class Tracer:
    """Collects spans in memory; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn, detail=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(next(self._ids), time.perf_counter())
            stack.append(frame)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_s += duration
                span = Span(
                    frame.span_id, parent.span_id if parent else None, label,
                    frame.start, end, duration - frame.child_s, error,
                    detail(args, kwargs, result) if detail else {},
                )
                with self._lock:
                    self.spans.append(span)
        return traced

    def install(self):
        modules = {name: importlib.import_module(f"scrollres.{name}")
                   for name in {t[0] for t in TARGETS}}
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "scrollres" or n.startswith("scrollres.")]
        for mod_name, attr, detail in TARGETS:
            label = f"{mod_name}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[mod_name], owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(label, original, detail))
                continue
            original = getattr(modules[mod_name], attr)
            wrapped = self.wrap(label, original, detail)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


#: attempt-failure types counted on their own; the rest go to ``.other``
FAILURE_TYPES = ("GammaError", "InsufficientRationalPointsError")


def layer_metrics(spans: list, verdict_s: float) -> dict:
    """Per-layer numbers from one traced run.

    ``*_s`` is self time summed over calls, ``*_calls`` a call count.
    ``verdict_s`` is the traced wall time of the workload's timed calls; the
    same figure untraced is the end-to-end ``verdict_s``, so the difference
    is the tracing overhead.
    """
    by: dict = {}
    for s in spans:
        by.setdefault(s.label, []).append(s)

    def self_s(*labels):
        return sum(s.self_s for label in labels for s in by.get(label, ()))

    def calls(label):
        return len(by.get(label, ()))

    kernels = by.get("ffield.kernel_mod", [])
    slowest = max(kernels, key=lambda s: s.duration, default=None)
    samples = by.get("plane_curve.sample_smooth_points", [])

    chains = by.get("pipeline.build_chain", [])
    runs = by.get("pipeline.run_pipeline", [])
    seeds = by.get("pipeline.survey_seed", [])
    surveys = by.get("pipeline.sample_survey", [])
    useful = (
        sum(1 for r in runs if r.info["accepted"])
        + sum(1 for s in seeds if s.info["ok"])
        + sum(1 for c in chains if c.parent_id is None and c.error is None)
    )
    wasted = sum(s.duration for s in seeds if not s.info["ok"])
    for run in runs:
        own = [c for c in chains if c.parent_id == run.span_id]
        if run.info["accepted"] and own:
            wasted += own[-1].start - run.start
        else:
            wasted += run.duration
    failures = [f for s in runs + seeds for f in s.info["failures"]]
    failures += [c.error for c in chains if c.parent_id is None and c.error]
    busy = sum(s.duration for s in seeds)
    capacity = sum(s.duration * (s.info["workers"] or 1) for s in surveys)

    metrics = {
        "ffield.rref_s": self_s("ffield.rref_mod"),
        "ffield.rref_calls": calls("ffield.rref_mod"),
        "ffield.rref_cells": sum(
            s.info["rows"] * s.info["cols"] for s in by.get("ffield.rref_mod", ())
        ),
        "ffield.kernel_max_s": slowest.duration if slowest else 0.0,
        "ffield.kernel_max_rows": slowest.info["rows"] if slowest else 0,
        "ffield.kernel_max_cols": slowest.info["cols"] if slowest else 0,
        "ffield.det_s": self_s("ffield.det_mod"),
        "ffield.det_calls": calls("ffield.det_mod"),
        "ffield.echelon_add_s": self_s("ffield.Echelon.add"),
        "ffield.echelon_add_calls": calls("ffield.Echelon.add"),
        "plane_curve.sample_s": self_s("plane_curve.sample_smooth_points"),
        "plane_curve.sample_calls": len(samples),
        "plane_curve.points_returned": sum(s.info["points"] for s in samples),
        "plane_curve.sample_failures": sum(1 for s in samples if s.error),
        "plane_curve.construct_s": self_s("plane_curve.construct_nodal_nonic"),
        "scroll.coords_s": self_s("scroll.canonical_coordinates"),
        "scroll.point_values_s": self_s("scroll.point_values"),
        "scroll.value_matrix_s": self_s("scroll.monomial_value_matrix"),
        "resolution.ideal_slice_s": self_s("resolution.SliceContext.ideal_slice"),
        "resolution.ideal_slice_calls": calls("resolution.SliceContext.ideal_slice"),
        "resolution.generator_step_s": self_s("resolution.ideal_generator_step"),
        "resolution.next_syzygies_s": self_s("resolution.next_syzygies"),
        "resolution.betti_s": self_s("resolution.betti_table"),
        "k3_syzygy.syzygy_space_s": self_s("k3_syzygy.linear_syzygy_space"),
        "k3_syzygy.scheme_s": self_s("k3_syzygy.syzygy_scheme"),
        "k3_syzygy.pfaffian_s": self_s("k3_syzygy.pfaffian_reconstruct"),
        "k3_syzygy.pfaffian_calls": calls("k3_syzygy.pfaffian_reconstruct"),
        "k3_syzygy.shape_s": self_s("k3_syzygy.k3_betti_shape"),
        "quartic_net.net_s": self_s("quartic_net.quartic_net"),
        "quartic_net.residual_degree_s": self_s("quartic_net.residual_degree"),
        "quartic_net.image_quartic_s": self_s("quartic_net.image_quartic"),
        "quartic_net.image_quartic_calls": calls("quartic_net.image_quartic"),
        "quartic_net.gamma_s": self_s(
            "quartic_net.fit_gamma", "quartic_net.gamma_singular_point",
            "quartic_net.fit_gamma_map", "quartic_net.singular_fiber_parameters",
        ),
        "quartic_net.macaulay_s": self_s("quartic_net.macaulay_resultant_smooth"),
        "lattice.suite_s": self_s("pipeline.lattice_suite"),
        "lattice.derive_entries_s": self_s("lattice.derive_hprime_entries"),
        "lattice.second_polarization_s": self_s("lattice.second_polarization_entries"),
        "lattice.second_polarization_calls": calls("lattice.second_polarization_entries"),
        "lattice.enum_s": self_s("lattice.enum_classes"),
        "lattice.positivity_s": self_s(
            "lattice.is_ample", "lattice.is_nef", "lattice.is_basepoint_free"
        ),
        "lattice.audit_s": self_s("lattice.dimension_audit"),
        "pipeline.chains_built": len(chains),
        "pipeline.useful_chain_ratio": useful / len(chains) if chains else 0.0,
        "pipeline.wasted_s": wasted,
        "pipeline.attempt_failures": len(failures),
        "pipeline.survey_busy_s": busy,
        "pipeline.survey_parallel_efficiency": busy / capacity if capacity else 0.0,
        "trace.verdict_s": verdict_s,
    }
    for kind in FAILURE_TYPES:
        metrics[f"pipeline.attempt_failures.{kind}"] = failures.count(kind)
    metrics["pipeline.attempt_failures.other"] = sum(
        1 for f in failures if f not in FAILURE_TYPES
    )
    return metrics
