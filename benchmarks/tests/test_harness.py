"""Self-tests of the benchmark harness: checker, span arithmetic, input generation.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import kljn.cli  # noqa: E402
import kljn.solver  # noqa: E402

REQUEST = {
    "resistors": list(workloads.REFERENCE_QUAD.values()),
    "v_la": 1.0,
    "samples": 16,
    "bits": 64,
    "master_seed": 12345,
    "bins": 10,
}


@pytest.fixture(params=["alternate", "random"])
def artifacts(request, tmp_path):
    """A small real `kljn run` and the request that describes it."""
    policy = request.param
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "resistors_ohm": workloads.REFERENCE_QUAD,
        "v_la_variance_v2": 1.0,
        "samples_per_bit": REQUEST["samples"],
        "num_bits": REQUEST["bits"],
        "master_seed": REQUEST["master_seed"],
        "state_policy": policy,
        "histogram_bins": REQUEST["bins"],
    }))
    outdir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert kljn.cli.main(["run", str(config), str(outdir), "--threads", "1"]) == 0
    return outdir, dict(REQUEST, policy=policy)


def test_checker_accepts_untouched_artifacts(artifacts):
    outdir, request = artifacts
    assert checks.check_run_artifacts(outdir, request) == []


def test_checker_rejects_tampered_scatter(artifacts):
    outdir, request = artifacts
    path = outdir / "scatter.csv"
    lines = path.read_text().splitlines()
    v_e, i_e = lines[5].split(",")
    lines[5] = f"{float(v_e) * (1 + 1e-15)!r},{i_e}"
    path.write_text("\n".join(lines) + "\n")
    assert any("scatter.csv" in f for f in checks.check_run_artifacts(outdir, request))


def test_checker_rejects_wrong_bits_lh(artifacts):
    outdir, request = artifacts
    path = outdir / "ber.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = dict(zip(header.split(","), first.split(",")))
    cells["bits_lh"] = str(int(cells["bits_lh"]) + 1)
    path.write_text("\n".join([header, ",".join(cells.values()), *rest]) + "\n")
    assert any("bits_lh" in f for f in checks.check_run_artifacts(outdir, request))


def test_checker_reads_columns_by_header(artifacts):
    outdir, request = artifacts
    path = outdir / "ber.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("\n".join(",".join(row[::-1] + ["extra"]) for row in rows) + "\n")
    assert checks.check_run_artifacts(outdir, request) == []


def test_checker_compares_recorded_values(artifacts):
    outdir, request = artifacts
    rows = checks._read_csv(outdir / "ber.csv")
    golden = {r["indicator"]: {"ber_percent": float(r["ber_percent"]),
                               "threshold": float(r["threshold"])} for r in rows}
    assert checks.check_run_artifacts(outdir, request, golden) == []
    golden["voltage_variance"]["threshold"] *= 1 + 1e-12
    assert any("threshold" in f for f in checks.check_run_artifacts(outdir, request, golden))


def _span(name, start, end, parent=None):
    return spans.Span(name, float(start), float(end), parent)


def test_self_time_on_a_fake_nested_tree():
    recorder = spans.SpanRecorder()
    recorder.spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("b", 3, 6, parent=0),  # overlaps a: the union counts once
        _span("a.child", 2, 3, parent=1),
        _span("late", 9, 12, parent=0),  # clipped at the parent's end
        _span("other_root", 20, 21),
    ]
    assert recorder.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    assert recorder.has_ancestor(3, "root") and not recorder.has_ancestor(5, "root")


def test_wrapped_calls_record_parents_and_errors():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x * 2, measure=lambda args, result: (args[0], result))

    def fails():
        raise ValueError("boom")

    outer = recorder.wrap("outer", lambda: inner(3) + inner(4))
    broken = recorder.wrap("broken", fails)
    assert outer() == 14
    with pytest.raises(ValueError):
        broken()
    names = [(s.name, s.parent, s.samples, s.nbytes, s.error) for s in recorder.spans]
    assert names == [
        ("outer", None, 0, 0, None),
        ("inner", 0, 3, 6, None),
        ("inner", 0, 4, 8, None),
        ("broken", None, 0, 0, "ValueError"),
    ]
    assert all(t >= 0 for t in recorder.self_times())


def test_tracing_restores_the_program(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.boundaries()]
    with spans.traced(spans.SpanRecorder()):
        assert kljn.cli.main is not originals[-1]
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.boundaries()] == originals


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    paths = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        (tmp_path / sub).mkdir()
        paths.append(workloads.write_inputs(workload, seed, tmp_path / sub))
    same, again, other = (p.read_bytes() for p in paths)
    assert same == again
    assert same != other


def test_operation_seeds_are_a_function_of_the_seed():
    def first(seed, n=5):
        seeds = workloads.op_seeds(seed)
        return [next(seeds) for _ in range(n)]

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_design_verdicts_flag_only_the_johnson_pass_as_known():
    entry = {"kind": "random", "r": [1e3, 1e4, 5e3, 9e3], "hl_factor": 1.1}
    solved = kljn.solver.solve_variances(kljn.ResistorQuad(*entry["r"]), 1.0)
    secure = [solved.v_la_sq, solved.v_ha_sq, solved.v_lb_sq, solved.v_hb_sq]
    ok = [(1.0, None, secure, True, False)]
    assert checks.check_design_item(entry, ok) == ([], [])
    lab_pass = [(1.0, None, secure, True, True)]
    assert len(checks.check_design_item(entry, lab_pass)[0]) == 1
    johnson = [(1e-20, None, [1e-20 * v for v in secure], True, True)]
    failures, known = checks.check_design_item(entry, johnson)
    assert failures == [] and len(known) == 1
    wrong_error = [(1.0, "SingularDenominatorError")]
    assert len(checks.check_design_item(entry, wrong_error)[0]) == 1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_setup_probe_reports_readiness_then_its_calibration():
    import subprocess

    probe = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", "reference"],
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    ready, calibrated = (json.loads(line) for line in probe.stdout.splitlines())
    assert ready["import_s"] > 0 and calibrated["calibration_s"] > 0
