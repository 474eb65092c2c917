"""Benchmark of `kljn run` and the variance solver, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `kljn` from its `src/`.
One process runs one workload: it makes one untimed warm-up operation, then
repeats operations for ``--seconds``, checks every operation's outputs (see
checks.py) and, spread over the same time, times set-up in fresh child
processes. Metrics are medians over the operations, so a run spans several
host speed phases instead of sitting inside one. Every time is rescaled to one
reference host speed by a calibration kernel (see calibration.py); the raw
figures are in the diagnostics.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(items_per_s, setup_s, peak_rss_mb). With ``--trace 1`` it reports the
per-layer metrics from span wrappers around the program's module attributes
(see spans.py), taken on alternate operations until SPAN_BUDGET spans are
held; the untraced operations give the tracing overhead. The line before the result is a JSON
diagnostics record: host, per-operation quartiles and tail, failures.

`correct` is false when any output check fails, except the documented
ROADMAP item-3 defect, which counts in `failed` only. Without `src/kljn` next
to the benchmark the run exits with status 1 and prints no result.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "kljn"
SETUP_PROBES = 7
# Traced operations stop once this many spans are held (about 30 MB).
SPAN_BUDGET = 250_000

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_program() -> float:
    """Import numpy and `kljn` from this checkout's source; return the import time."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no kljn source at {PACKAGE}; run from a source checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    start = time.perf_counter()
    importlib.import_module("numpy")
    kljn = importlib.import_module("kljn.cli")
    took = time.perf_counter() - start
    if Path(kljn.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"benchmark: imported kljn from {kljn.__file__}, not from {PACKAGE}")
    return took


@dataclass
class OpResult:
    items: int
    wall_s: float
    cpu_s: float
    children_cpu_s: float
    attempted: int = 1
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    bytes_written: int = 0
    host_factor: float = 1.0  # nominal / measured calibration time around this operation


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _timed(call):
    """(result, wall, cpu, children cpu) of ``call()``; a program crash is returned, not raised."""
    wall, cpu, children = time.perf_counter(), time.process_time(), _children_cpu()
    try:
        result = call()
    except Exception:  # the loop must go on; the traceback becomes a failure
        result = traceback.format_exc(limit=3)
    return (
        result,
        time.perf_counter() - wall,
        time.process_time() - cpu,
        _children_cpu() - children,
    )


class RunOperation:
    """One `kljn.cli.main(["run", ...])` on a fresh master seed, then its checks."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import checks
        import kljn.cli
        import workloads

        self.cli = kljn.cli
        self.spec = workloads.RUN_WORKLOADS[name]
        self.config = workdir / f"{name}.json"
        self.outdir = workdir / "out"
        self.seeds = workloads.op_seeds(seed)
        self.request = {
            "resistors": list(workloads.REFERENCE_QUAD.values()),
            "v_la": workloads.REFERENCE_V_LA,
            "samples": self.spec.samples_per_bit,
            "bits": self.spec.bits_per_op,
            "policy": self.spec.state_policy,
            "bins": workloads.HISTOGRAM_BINS,
        }
        golden = json.loads((HERE / "golden.json").read_text())
        self.golden = golden["workloads"].get(name, {})
        self.check = checks.check_run_artifacts

    def __call__(self, threads: int | None = None) -> OpResult:
        master_seed = next(self.seeds)
        threads = self.spec.threads if threads is None else threads
        argv = ["run", str(self.config), str(self.outdir), "--threads", str(threads),
                "--seed", str(master_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code, wall, cpu, children = _timed(lambda: self.cli.main(argv))
        op = OpResult(self.spec.bits_per_op, wall, cpu, children)
        if code != 0:
            op.failures.append(f"kljn run {argv} returned {code}")
        else:
            request = dict(self.request, master_seed=master_seed)
            op.failures = self.check(self.outdir, request, self.golden.get(str(master_seed)))
            op.bytes_written = sum(p.stat().st_size for p in self.outdir.iterdir())
        op.failed = int(bool(op.failures))
        return op


class DesignOperation:
    """solve_variances and check_security over one batch of quads, then the verdict checks.

    Each quad is one attempted item; the batch is the timed operation.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        import checks
        from kljn import circuit, errors, solver

        # Modules, not functions: attributes are looked up per call, so a
        # traced run reaches the span wrappers.
        self.circuit, self.errors, self.solver = circuit, errors, solver
        config = json.loads((workdir / f"{name}.json").read_text())
        self.batches = config["batches"]
        self.scales = config["v_la_scales"]
        self.index = 0
        self.check = checks.check_design_item
        self.tolerance = checks.CHECK_TOLERANCE

    def _sweep(self, batch: list[dict]) -> list[list[tuple]]:
        circuit, errors, solver = self.circuit, self.errors, self.solver
        outcomes = []
        for entry in batch:
            quad = circuit.ResistorQuad(*entry["r"])
            per_scale = []
            for scale in self.scales:
                try:
                    solved = solver.solve_variances(quad, scale)
                except (errors.InfeasibleConfigError, errors.SingularDenominatorError) as exc:
                    per_scale.append((scale, type(exc).__name__))
                    continue
                if "variances" in entry:
                    perturbed = circuit.NoiseVariances(*(scale * v for v in entry["variances"]))
                else:
                    f = entry["hl_factor"]
                    perturbed = circuit.NoiseVariances(
                        solved.v_la_sq, solved.v_ha_sq * f, solved.v_lb_sq * f, solved.v_hb_sq
                    )
                per_scale.append((
                    scale,
                    None,
                    [solved.v_la_sq, solved.v_ha_sq, solved.v_lb_sq, solved.v_hb_sq],
                    solver.check_security(quad, solved).within(self.tolerance),
                    solver.check_security(quad, perturbed).within(self.tolerance),
                ))
            outcomes.append(per_scale)
        return outcomes

    def __call__(self, threads: int | None = None) -> OpResult:
        batch = self.batches[self.index % len(self.batches)]
        self.index += 1
        outcomes, wall, cpu, children = _timed(lambda: self._sweep(batch))
        op = OpResult(len(batch), wall, cpu, children, attempted=len(batch))
        if isinstance(outcomes, str):
            op.failures, op.failed = [f"design batch raised: {outcomes}"], len(batch)
            return op
        for entry, per_scale in zip(batch, outcomes):
            failures, known = self.check(entry, per_scale)
            op.failures += failures
            op.known += known
            op.failed += bool(failures or known)
        return op


def _rate(op: OpResult) -> float:
    """Items per second of operation time at the reference host speed."""
    return op.items / (op.wall_s * op.host_factor)


def _median_rate(ops: list[OpResult]) -> float:
    return statistics.median(_rate(op) for op in ops)


def _distribution(ops: list[OpResult]) -> dict:
    """Per-operation quartiles and the slow tail: diagnostics, not gated."""
    rates = sorted(_rate(op) for op in ops)
    us_per_item = sorted(1e6 / rate for rate in rates)
    out = {
        "operations": len(ops),
        "items_per_s_median": statistics.median(rates),
        "raw_items_per_s_median": statistics.median(op.items / op.wall_s for op in ops),
        "host_factor_median": statistics.median(op.host_factor for op in ops),
        "cpu_over_wall_median": statistics.median(op.cpu_s / op.wall_s for op in ops),
    }
    if len(ops) >= 2:
        out["items_per_s_quartiles"] = statistics.quantiles(rates, n=4)
        out["host_factor_quartiles"] = statistics.quantiles([op.host_factor for op in ops], n=4)
    # Highest whole percentile with at least ten operations beyond it.
    tail = int(100 * (1 - 10 / len(ops))) if len(ops) >= 20 else 0
    if tail >= 50:
        out[f"us_per_item_p{tail}"] = statistics.quantiles(us_per_item, n=100)[tail - 1]
    return out


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Time of one fresh process from spawn until its first operation could start.

    The probe imports the program, writes the workload's inputs and prints a
    line; then it times the set-up calibration kernel itself, so the rescaling
    uses the speed of the CPU the probe ran on. Returns the set-up time and
    the probe's own import time, both at the reference host speed.
    """
    import calibration

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
        ready = probe.stdout.readline()
        took = time.perf_counter() - start
        rest, _ = probe.communicate(timeout=120)
    if probe.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe {argv} exited with {probe.returncode}")
    factor = calibration.SETUP_NOMINAL_S / json.loads(rest)["calibration_s"]
    return took * factor, json.loads(ready)["import_s"] * factor


def _probe(import_s: float) -> int:
    """Set-up probe: report readiness, then time the set-up calibration kernel here."""
    import calibration

    print(json.dumps({"import_s": import_s}), flush=True)
    print(json.dumps({"calibration_s": calibration.import_kernel()}))
    return 0


class CalibratedLoop:
    """Runs operations back to back with a calibration kernel timed between them."""

    def __init__(self, cal):
        self.cal = cal
        self.last = cal.measure()

    def __call__(self, operation, **kwargs) -> OpResult:
        op = operation(**kwargs)
        now = self.cal.measure()
        op.host_factor = self.cal.factor(self.last, now)
        self.last = now
        return op

    def recalibrate(self) -> None:
        """Call after other work, so the next operation's bracket starts fresh."""
        self.last = self.cal.measure()


def _workdir(args) -> Path:
    path = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    workdir = _workdir(args)
    try:
        workloads.write_inputs(args.workload, args.seed, workdir)
        if args.setup_probe:
            return _probe(import_s)
        in_process_setup_s = time.perf_counter() - _PROCESS_START
        return _benchmark(args, workdir, in_process_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _benchmark(args, workdir: Path, in_process_setup_s: float) -> int:
    import calibration
    import hostinfo
    import spans
    import workloads

    load_before = hostinfo.load()
    kernel, kernel_args, nominal_s = workloads.CALIBRATIONS[args.workload]
    cal = calibration.Calibration(getattr(calibration, kernel), kernel_args, nominal_s)
    cal.measure()  # the first call pays numpy's lazy set-up
    cal.samples.clear()
    kind = RunOperation if args.workload in workloads.RUN_WORKLOADS else DesignOperation
    operation = kind(args.workload, args.seed, workdir)
    pool = args.workload == "reference_pool"

    warmup = operation()
    plain, traced_ops, serial, setups = [], [], [], []
    recorder = spans.SpanRecorder()
    loop = CalibratedLoop(cal)
    start = time.perf_counter()
    # Set-up probes are spread over the run, so they see the same host
    # phases as the operations do.
    probe_due = [start + (k + 0.5) * args.seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
    while time.perf_counter() - start < args.seconds:
        plain.append(loop(operation))
        if args.trace and len(recorder.spans) < SPAN_BUDGET:
            recorder.op = len(traced_ops)
            with spans.traced(recorder):
                traced_ops.append(loop(operation))
            if pool:
                serial.append(loop(operation, threads=1))
        if len(setups) < SETUP_PROBES and time.perf_counter() >= probe_due[len(setups)]:
            setups.append(setup_probe(args.workload, args.seed))
            loop.recalibrate()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
    setup_totals, setup_imports = zip(*setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    load_after = hostinfo.load()

    every = [warmup, *plain, *traced_ops, *serial]
    failures = [msg for op in every for msg in op.failures]
    known = [msg for op in every for msg in op.known]
    attempted = sum(op.attempted for op in every)
    failed = sum(op.failed for op in every)
    steal = (load_after["steal_ticks"] - load_before["steal_ticks"]
             if load_before["steal_ticks"] is not None else None)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": hostinfo.environment(ROOT, PACKAGE),
        "loadavg_before": load_before["loadavg"],
        "loadavg_after": load_after["loadavg"],
        "steal_ticks_delta": steal,
        "setup_probe_s": setup_totals,
        "calibration_s_quartiles": statistics.quantiles(cal.samples, n=4),
        "setup_in_process_s": in_process_setup_s,
        "untraced": _distribution(plain),
        "failures": failures[:5],
        "failure_count": len(failures),
        "known_defects": known[:3],
        "known_defect_count": len(known),
    }

    if args.trace:
        layers = spans.layer_metrics(recorder, traced_ops)
        layers["setup.import_s"] = statistics.median(setup_imports)
        if pool:
            serial_us = 1e6 / _median_rate(serial)
            pool_us = 1e6 / _median_rate(plain)
            workers = operation.spec.threads
            layers["simulation.pool_efficiency"] = serial_us / (workers * pool_us)
            layers["simulation.pool_worker_cpu_s"] = statistics.median(
                op.children_cpu_s for op in plain
            )
            diagnostics["serial"] = _distribution(serial)
        traced_rate, plain_rate = _median_rate(traced_ops), _median_rate(plain)
        layers["trace.items_per_s_traced"] = traced_rate
        layers["trace.items_per_s_untraced"] = plain_rate
        layers["trace.overhead_items_per_s"] = traced_rate - plain_rate
        diagnostics["traced"] = _distribution(traced_ops)
        diagnostics["absent"] = spans.absent_reasons(recorder, pool)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        values = {
            "items_per_s": _median_rate(plain),
            "setup_s": statistics.median(setup_totals),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps(diagnostics))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
