"""Benchmark-side spans around the public functions on the audit path.

``install`` rebinds each listed function, in every ``purpose_audit`` module
that refers to it, to a wrapper that records a span (name, start, end,
parent) in memory; ``uninstall`` restores the originals. The program's files
are not touched. Per-layer metrics are derived from the spans afterwards:
a layer's time is the self time of its spans (duration minus child spans),
so the layer times of one command add up to its traced wall time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from gate import REASONS

# module -> public functions wrapped in that module.
TARGETS = {
    "cli": ("main",),
    "modelfile": ("parse_model", "parse_log"),
    "model": ("validate_model", "validate_behavior"),
    "solve": ("solve_optimal", "evaluate_strategy", "solve_linear_system"),
    "auditing": (
        "audit",
        "compute_fix",
        "check_restrictive",
        "check_prohibitive",
        "triage",
    ),
}
LIFT = ("auditing.check_restrictive", "auditing.check_prohibitive", "auditing.triage")
DECISION_PERCENTILE = 90

# Per-layer metric -> (unit, better). The order is the report order.
LAYER_METRICS = {
    "modelfile.parse_model_s": ("s", "lower"),
    "modelfile.parse_log_s": ("s", "lower"),
    "modelfile.doc_bytes": ("bytes", "lower"),
    "model.validate_model_s": ("s", "lower"),
    "model.validate_model_calls": ("count", "lower"),
    "model.validate_behavior_s": ("s", "lower"),
    "model.validate_behavior_calls": ("count", "lower"),
    "solve.exact_s": ("s", "lower"),
    "solve.exact_calls": ("count", "lower"),
    "solve.pi_rounds": ("count", "lower"),
    "solve.linear_solve_s": ("s", "lower"),
    "solve.linear_solves": ("count", "lower"),
    "solve.vstar_den_bits": ("bits", "lower"),
    "solve.float_s": ("s", "lower"),
    "solve.float_calls": ("count", "lower"),
    "auditing.audit_s": ("s", "lower"),
    "auditing.audit_calls": ("count", "lower"),
    "auditing.decision_p50_ms": ("ms", "lower"),
    f"auditing.decision_p{DECISION_PERCENTILE}_ms": ("ms", "lower"),
    "auditing.compute_fix_s": ("s", "lower"),
    "auditing.compute_fix_calls": ("count", "lower"),
    "auditing.solves_per_audit": ("ratio", "lower"),
    **{f"auditing.reason.{r}": ("count", "higher") for r in REASONS},
    "auditing.lift_s": ("s", "lower"),
    "auditing.lift_calls": ("count", "lower"),
    "auditing.solves_per_verdict": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Span name -> the layer time its self time is added to.
SELF_TIME_LAYER = {
    "cli.main": "cli.self_s",
    "modelfile.parse_model": "modelfile.parse_model_s",
    "modelfile.parse_log": "modelfile.parse_log_s",
    "model.validate_model": "model.validate_model_s",
    "model.validate_behavior": "model.validate_behavior_s",
    "solve.solve_optimal:exact": "solve.exact_s",
    "solve.evaluate_strategy": "solve.exact_s",
    "solve.solve_linear_system": "solve.linear_solve_s",
    "solve.solve_optimal:float": "solve.float_s",
    "auditing.audit": "auditing.audit_s",
    "auditing.compute_fix": "auditing.compute_fix_s",
    **{name: "auditing.lift_s" for name in LIFT},
}
COUNTS = {
    "model.validate_model_calls": "model.validate_model",
    "model.validate_behavior_calls": "model.validate_behavior",
    "solve.exact_calls": "solve.solve_optimal:exact",
    "solve.float_calls": "solve.solve_optimal:float",
    "solve.linear_solves": "solve.solve_linear_system",
    "auditing.audit_calls": "auditing.audit",
    "auditing.compute_fix_calls": "auditing.compute_fix",
}
# Metrics that must repeat exactly between runs at one seed.
DETERMINISTIC = (
    *COUNTS,
    "solve.pi_rounds",
    "solve.vstar_den_bits",
    "modelfile.doc_bytes",
    "auditing.lift_calls",
    "auditing.solves_per_audit",
    "auditing.solves_per_verdict",
    "cli.stdout_bytes",
    *(f"auditing.reason.{r}" for r in REASONS),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.attrs = {}


class Recorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, qualified: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            name = qualified
            if qualified == "solve.solve_optimal":
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
                name = f"{qualified}:{mode}"
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            _annotate(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name.startswith("purpose_audit.") and module is not None
        }
        for short, functions in TARGETS.items():
            module = modules.get(f"purpose_audit.{short}")
            for function in functions:
                original = getattr(module, function, None)
                if original is None:
                    self.missing.append(f"{short}.{function}")
                    continue
                wrapper = self.wrap(f"{short}.{function}", original)
                for holder in modules.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, value))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    **span.attrs,
                }
                handle.write(json.dumps(record) + "\n")


def _annotate(span: Span, args, result) -> None:
    if span.name == "modelfile.parse_model":
        span.attrs["bytes"] = len(args[0].encode("utf-8"))
    elif span.name == "solve.solve_optimal:exact":
        span.attrs["den_bits"] = max(
            (v.denominator.bit_length() for v in result.v_star.values()), default=0
        )
    elif span.name == "auditing.audit":
        span.attrs["reason"] = result.reason.value


def round_metrics(spans: list[Span], first: int, last: int, scales: dict[int, float]):
    """Per-layer metrics of spans[first:last], one traced round.

    ``scales`` maps the index of each root span (a ``cli.main`` call) to the
    factor that converts its wall time to reference seconds.
    Returns (metrics, decision latencies in ms).
    """
    metrics = dict.fromkeys(LAYER_METRICS, 0)
    child_time = [0.0] * (last - first)
    scale_of = [1.0] * (last - first)
    for i in range(first, last):
        span = spans[i]
        if span.parent is None or span.parent < first:
            scale_of[i - first] = scales.get(i, 1.0)
        else:
            scale_of[i - first] = scale_of[span.parent - first]
            child_time[span.parent - first] += span.end - span.start
    nested_solves = {"auditing.audit": 0, "lift": 0}
    decisions = []
    for i in range(first, last):
        span = spans[i]
        duration = span.end - span.start
        scale = scale_of[i - first]
        layer = SELF_TIME_LAYER.get(span.name)
        if layer:
            metrics[layer] += (duration - child_time[i - first]) * scale
        if span.name == "cli.main":
            metrics["cli.stdout_bytes"] += span.attrs.get("stdout_bytes", 0)
        elif span.name == "modelfile.parse_model":
            metrics["modelfile.doc_bytes"] += span.attrs["bytes"]
        elif span.name == "solve.solve_optimal:exact":
            metrics["solve.vstar_den_bits"] = max(
                metrics["solve.vstar_den_bits"], span.attrs["den_bits"]
            )
        elif span.name == "solve.evaluate_strategy":
            if _ancestor(spans, span, first, ("solve.solve_optimal:exact",)):
                metrics["solve.pi_rounds"] += 1
        elif span.name == "auditing.audit":
            metrics[f"auditing.reason.{span.attrs['reason']}"] += 1
            decisions.append(duration * scale * 1000)
        elif span.name in LIFT:
            metrics["auditing.lift_calls"] += 1
        if span.name.startswith("solve.solve_optimal"):
            if _ancestor(spans, span, first, ("auditing.audit",)):
                nested_solves["auditing.audit"] += 1
            if _ancestor(spans, span, first, LIFT):
                nested_solves["lift"] += 1
    for metric, name in COUNTS.items():
        metrics[metric] = sum(1 for s in spans[first:last] if s.name == name)
    if metrics["auditing.audit_calls"]:
        metrics["auditing.solves_per_audit"] = (
            nested_solves["auditing.audit"] / metrics["auditing.audit_calls"]
        )
    if metrics["auditing.lift_calls"]:
        metrics["auditing.solves_per_verdict"] = (
            nested_solves["lift"] / metrics["auditing.lift_calls"]
        )
    return metrics, decisions


def _ancestor(spans, span, first, names) -> bool:
    parent = span.parent
    while parent is not None and parent >= first:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def summarize(rounds: list[dict], decisions: list[float]) -> dict:
    """Medians of per-round times, counts from the first round, and the
    decision-latency percentiles over every traced audit call."""
    summary = {}
    for metric in LAYER_METRICS:
        values = [r[metric] for r in rounds]
        unit = LAYER_METRICS[metric][0]
        summary[metric] = statistics.median(values) if unit == "s" else values[0]
    if len(decisions) >= 2:
        cuts = statistics.quantiles(decisions, n=100)
        summary["auditing.decision_p50_ms"] = statistics.median(decisions)
        summary[f"auditing.decision_p{DECISION_PERCENTILE}_ms"] = cuts[DECISION_PERCENTILE - 1]
    return summary
