"""Span recorder for the traced run: wraps the program's module attributes.

A span is one call through a wrapped boundary: name, start, end, parent span
and the operation it belongs to, plus the counts measured at that boundary
(samples drawn, bytes returned, exception raised). Spans stay in memory; the
per-layer metrics are computed from them after the run. Nothing here changes
what the program computes: a wrapper calls the original and returns its
result untouched.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    samples: int = 0
    nbytes: int = 0
    error: str | None = None


@dataclass
class SpanRecorder:
    spans: list[Span] = field(default_factory=list)
    op: int = 0
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(args, result)`` gives counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), parent=parent, op=self.op)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if measure is not None:
                span.samples, span.nbytes = measure(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return [
            (span.end - span.start) - _covered(span, children.get(index, ()))
            for index, span in enumerate(self.spans)
        ]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def _draw(args, result):
    return args[0], result.nbytes


def _signals(args, result):
    return 0, result.v_e.nbytes + result.i_e.nbytes


def _exchange(args, result):
    import kljn

    columns = [result.indicator_values(i) for i in kljn.Indicator]
    return 0, sum(c.nbytes for c in columns) + result.state_mask(kljn.LineState.HL).nbytes


def boundaries():
    """(owner, attribute, span name, measure) for every wrapped boundary.

    The owner is the namespace the program looks the name up in at call
    time, so `kljn.cli.run_exchange` is wrapped, not `kljn.simulation`'s.
    """
    import kljn.cli
    import kljn.noise
    import kljn.simulation
    import kljn.solver

    return [
        (kljn.noise.StreamSeed, "generator", "noise.generator", None),
        (kljn.simulation, "gaussian_block", "noise.gaussian_block", _draw),
        (kljn.simulation, "line_signals", "circuit.line_signals", _signals),
        (kljn.cli, "run_exchange", "simulation.run_exchange", _exchange),
        (kljn.cli, "ber_report", "simulation.ber_report", None),
        (kljn.cli, "histogram", "simulation.histogram", None),
        (kljn.cli, "scatter_trace", "simulation.scatter_trace", None),
        (kljn.cli, "solve_variances", "solver.solve_variances", None),
        (kljn.solver, "solve_variances", "solver.solve_variances", None),
        (kljn.solver, "check_security", "solver.check_security", None),
        (kljn.solver, "theoretical_moments", "circuit.theoretical_moments", None),
        (kljn.cli, "load_config", "cli.load_config", None),
        (kljn.cli, "main", "cli.main", None),
    ]


@contextmanager
def traced(recorder: SpanRecorder):
    """Install span wrappers on every boundary; restore the originals on exit."""
    saved = []
    try:
        for owner, attribute, name, measure in boundaries():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, measure))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


PER_LAYER_UNITS = {
    "noise.generators_per_bit": "count",
    "noise.generator_us": "us",
    "noise.gaussian_block_us_per_bit": "us",
    "noise.samples_per_bit": "count",
    "circuit.line_signals_us_per_bit": "us",
    "circuit.line_signals_calls_per_bit": "count",
    "simulation.reduce_us_per_bit": "us",
    "simulation.analysis_ms": "ms",
    "simulation.scatter_ms": "ms",
    "simulation.bytes_per_bit_computed": "B",
    "simulation.pool_efficiency": "ratio",
    "simulation.pool_worker_cpu_s": "s",
    "solver.solve_us": "us",
    "solver.check_us": "us",
    "circuit.theoretical_moments_calls_per_item": "count",
    "solver.infeasible_share": "ratio",
    "solver.singular_share": "ratio",
    "cli.load_config_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_written": "B",
    "setup.import_s": "s",
    "trace.items_per_s_traced": "1/s",
    "trace.items_per_s_untraced": "1/s",
    "trace.overhead_items_per_s": "1/s",
}

# Metric -> the span its value is computed from; a metric whose span never
# ran in the traced operations is reported as 0 with the reason in diagnostics.
_SOURCE_SPAN = {
    "noise.generators_per_bit": "noise.generator",
    "noise.generator_us": "noise.generator",
    "noise.gaussian_block_us_per_bit": "noise.gaussian_block",
    "noise.samples_per_bit": "noise.gaussian_block",
    "circuit.line_signals_us_per_bit": "circuit.line_signals",
    "circuit.line_signals_calls_per_bit": "circuit.line_signals",
    "simulation.reduce_us_per_bit": "simulation.run_exchange",
    "simulation.analysis_ms": "simulation.ber_report",
    "simulation.scatter_ms": "simulation.scatter_trace",
    "simulation.bytes_per_bit_computed": "simulation.run_exchange",
    "solver.solve_us": "solver.solve_variances",
    "solver.check_us": "solver.check_security",
    "circuit.theoretical_moments_calls_per_item": "circuit.theoretical_moments",
    "solver.infeasible_share": "solver.solve_variances",
    "solver.singular_share": "solver.solve_variances",
    "cli.load_config_ms": "cli.load_config",
    "cli.self_ms": "cli.main",
    "cli.bytes_written": "cli.main",
}


@dataclass
class _Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    samples: int = 0
    nbytes: int = 0
    errors: dict = field(default_factory=dict)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(recorder: SpanRecorder, traced_ops: list) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations.

    Times are rescaled to the reference host speed by the host factor of the
    operation each span belongs to, as the end-to-end times are. Per-bit
    noise and circuit figures count only spans inside run_exchange,
    so the scatter trace's four streams do not blur the exchange's two per bit.
    """
    everywhere: dict[str, _Totals] = {}
    in_exchange: dict[str, _Totals] = {}
    for index, (span, self_s) in enumerate(zip(recorder.spans, recorder.self_times())):
        host_factor = traced_ops[span.op].host_factor
        tables = [everywhere]
        if recorder.has_ancestor(index, "simulation.run_exchange"):
            tables.append(in_exchange)
        for table in tables:
            t = table.setdefault(span.name, _Totals())
            t.calls += 1
            t.self_s += self_s * host_factor
            t.total_s += (span.end - span.start) * host_factor
            t.samples += span.samples
            t.nbytes += span.nbytes
            if span.error:
                t.errors[span.error] = t.errors.get(span.error, 0) + 1

    def every(name):
        return everywhere.get(name, _Totals())

    def inner(name):
        return in_exchange.get(name, _Totals())

    items = sum(op.items for op in traced_ops)
    ops = len(traced_ops)
    solve = every("solver.solve_variances")
    exchange = every("simulation.run_exchange")
    return {
        "noise.generators_per_bit": _per(inner("noise.generator").calls, items),
        "noise.generator_us": 1e6 * _per(every("noise.generator").self_s, every("noise.generator").calls),
        "noise.gaussian_block_us_per_bit": 1e6 * _per(inner("noise.gaussian_block").self_s, items),
        "noise.samples_per_bit": _per(inner("noise.gaussian_block").samples, items),
        "circuit.line_signals_us_per_bit": 1e6 * _per(inner("circuit.line_signals").self_s, items),
        "circuit.line_signals_calls_per_bit": _per(inner("circuit.line_signals").calls, items),
        "simulation.reduce_us_per_bit": 1e6 * _per(exchange.self_s, items),
        "simulation.analysis_ms": 1e3 * _per(
            every("simulation.ber_report").total_s + every("simulation.histogram").total_s, ops
        ),
        "simulation.scatter_ms": 1e3 * _per(every("simulation.scatter_trace").total_s, ops),
        "simulation.bytes_per_bit_computed": _per(
            inner("noise.gaussian_block").nbytes + inner("circuit.line_signals").nbytes
            + exchange.nbytes,
            items,
        ),
        "simulation.pool_efficiency": 0.0,
        "simulation.pool_worker_cpu_s": 0.0,
        "solver.solve_us": 1e6 * _per(solve.total_s, solve.calls),
        "solver.check_us": 1e6 * _per(every("solver.check_security").total_s,
                                      every("solver.check_security").calls),
        "circuit.theoretical_moments_calls_per_item": _per(
            every("circuit.theoretical_moments").calls, items
        ),
        "solver.infeasible_share": _per(solve.errors.get("InfeasibleConfigError", 0), solve.calls),
        "solver.singular_share": _per(solve.errors.get("SingularDenominatorError", 0), solve.calls),
        "cli.load_config_ms": 1e3 * _per(every("cli.load_config").total_s, every("cli.load_config").calls),
        "cli.self_ms": 1e3 * _per(every("cli.main").self_s, every("cli.main").calls),
        "cli.bytes_written": _per(sum(op.bytes_written for op in traced_ops), ops),
    }


def absent_reasons(recorder: SpanRecorder, pool: bool) -> dict[str, str]:
    """Why a per-layer metric reads 0 on this workload."""
    ran = {span.name for span in recorder.spans}
    reasons = {
        metric: f"not exercised: no {span} call in the traced operations"
        for metric, span in _SOURCE_SPAN.items()
        if span not in ran
    }
    if pool:
        for metric, span in _SOURCE_SPAN.items():
            if span in ("noise.generator", "noise.gaussian_block", "circuit.line_signals"):
                reasons[metric] = "runs in pool worker processes, whose spans are not collected"
    else:
        for metric in ("simulation.pool_efficiency", "simulation.pool_worker_cpu_s"):
            reasons[metric] = "not exercised: only reference_pool runs the process pool"
    return reasons
