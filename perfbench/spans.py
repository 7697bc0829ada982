"""Spans around the program's public functions, for the traced run.

`Tracer.install` replaces each traced function with a timing wrapper in
every eprdistill module that holds it (and a traced method on its class),
so calls made through any import path are seen.  Each wrapper records a
span (name, start, end, parent) and what the layer counts at that boundary.
Spans stay in memory until the process ends; `layer_metrics` turns the
spans of one or more processes into the per-layer figures, each per CLI
call.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _pdf_info(args, result):
    """Points evaluated, input rank and cutoff of a joint_quadrature_pdf call."""
    return {"points": int(result.size), "ndim": result.ndim, "n_max": args[0].config.n_max}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


# (span name, module, attribute, what to record from (args, result))
TARGETS = (
    ("cli.main", "eprdistill.cli", "main", None),
    ("cli.write", "eprdistill.scenario", "write_json_report", _written_bytes),
    ("cli.write", "eprdistill.scenario", "SweepResult.write_csv", _written_bytes),
    ("scenario.run_sampling", "eprdistill.scenario", "run_sampling", None),
    ("scenario.evaluate_gain_point", "eprdistill.scenario", "evaluate_gain_point", None),
    ("scenario.build_distilled_state", "eprdistill.scenario", "build_distilled_state", None),
    ("channels.tmsv_state", "eprdistill.channels", "tmsv_state", None),
    ("channels.loss_channel", "eprdistill.channels", "loss_channel", None),
    ("channels.nla_catalysis", "eprdistill.channels", "nla_catalysis", None),
    ("channels.beamsplitter_unitary", "eprdistill.channels", "beamsplitter_unitary", None),
    ("channels.herald_click", "eprdistill.channels", "herald_click", None),
    ("fock.density_matrix", "eprdistill.fock", "DensityMatrix.__init__", None),
    ("fock.tensor_product", "eprdistill.fock", "tensor_product", None),
    ("fock.apply_unitary", "eprdistill.fock", "apply_unitary", None),
    ("fock.partial_trace", "eprdistill.fock", "partial_trace", None),
    ("quadratures.covariance_summary", "eprdistill.quadratures", "covariance_summary", None),
    ("quadratures.duan_inseparability", "eprdistill.quadratures", "duan_inseparability", None),
    ("quadratures.sample_quadratures", "eprdistill.quadratures", "sample_quadratures",
     lambda args, result: {"accepted": len(result)}),
    ("quadratures.joint_quadrature_pdf", "eprdistill.quadratures", "joint_quadrature_pdf",
     _pdf_info),
    ("models.sp_model_covariance", "eprdistill.models", "sp_model_covariance", None),
    ("equivalent.solve_equivalent", "eprdistill.equivalent", "solve_equivalent",
     lambda args, result: {"branches": len(result.branches)}),
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def listed_metrics() -> list[tuple[str, str]]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    return [(m["name"], m["unit"]) for m in json.loads(BENCHMARK.read_text())["per_layer"]]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.update(observe(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eprdistill" or n.startswith("eprdistill."))]
        for name, module_name, attr, observe in TARGETS:
            owner = sys.modules[module_name]
            *cls, leaf = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, leaf)  # a stale table fails here, loudly
            wrapped = self._wrap(name, original, observe)
            for holder in [owner] if cls else modules:
                if getattr(holder, leaf, None) is original:
                    setattr(holder, leaf, wrapped)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures per CLI call; self time excludes child spans."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        name, dur = span["name"], span["end"] - span["start"]
        if name == "quadratures.joint_quadrature_pdf":
            stage = "envelope_grid" if span["ndim"] == 2 else "rejection_batches"
            name = f"quadratures.{stage}"
            dim = (span["n_max"] + 1) ** 2
            counts["pdf_points"] += span["points"]
            counts["pdf_flops"] += span["points"] * (2 * dim * dim + 3 * dim)
            total["pdf_s"] += dur
            if stage == "rejection_batches":
                counts["proposals"] += span["points"]
        for key in ("bytes", "accepted", "branches"):
            counts[key] += span.get(key, 0)
        total[name] += dur
        self_time[name] += dur - child[i]
        calls[name] += 1
    metrics = listed_metrics()
    n = max(calls["cli.main"], 1)
    values = {
        "cli.output_bytes": counts["bytes"] / n,
        "quadratures.proposals": counts["proposals"] / n,
        "quadratures.accepted": counts["accepted"] / n,
        "quadratures.acceptance": counts["accepted"] / counts["proposals"]
        if counts["proposals"] else 0.0,
        "quadratures.pdf_points_per_s": counts["pdf_points"] / total["pdf_s"]
        if total["pdf_s"] else 0.0,
        "quadratures.pdf_flops_computed": counts["pdf_flops"] / n,
        "equivalent.branches": counts["branches"] / n,
    }
    for metric, _unit in metrics:
        if metric in values:
            continue
        layer, _, kind = metric.rpartition(".")
        source = {"s": total, "self_s": self_time, "calls": calls}[kind]
        values[metric] = source[layer] / n
    return {metric: (values[metric], unit) for metric, unit in metrics}
