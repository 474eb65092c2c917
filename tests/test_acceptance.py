"""Acceptance gate: every release criterion, each printing one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
Monte-Carlo criteria use fixed seeds, so outcomes are reproducible; their
tolerances are multi-sigma statistical bands around the expected nulls.
"""

import json
import math

import numpy as np
import pytest

from kljn import (
    Indicator,
    InfeasibleConfigError,
    LineState,
    NoiseVariances,
    ResistorQuad,
    SimConfig,
    SingularDenominatorError,
    ber_report,
    check_security,
    estimate_ber,
    histogram,
    run_exchange,
    solve_variances,
)
from kljn.circuit import wire_moments
from kljn.cli import main

# The three benchmark resistor sets exercised by the BER gate,
# as (r_la, r_ha, r_lb, r_hb) in ohms.
BENCHMARK_QUADS = {
    "symmetric": ResistorQuad(1000.0, 9000.0, 1000.0, 9000.0),
    "asymmetric": ResistorQuad(1000.0, 10_000.0, 5000.0, 9000.0),
    "shared_high": ResistorQuad(1000.0, 5000.0, 5000.0, 9000.0),
}
BENCHMARK_SEEDS = {"symmetric": 101, "asymmetric": 202, "shared_high": 303}

GATE_BITS = 100_000
GATE_SAMPLES = 1000


def _pass(number, text):
    print(f"criterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = {}
    for name, quad in BENCHMARK_QUADS.items():
        config = SimConfig(
            quad=quad,
            variances=solve_variances(quad, 1.0),
            samples_per_bit=GATE_SAMPLES,
            num_bits=GATE_BITS,
            master_seed=BENCHMARK_SEEDS[name],
        )
        runs[name] = (config, run_exchange(config, threads=0))
    return runs


def test_criterion_1_solver_matches_reference_amplitudes():
    variances = solve_variances(BENCHMARK_QUADS["asymmetric"], 1.0)
    got = {
        "v_hb": math.sqrt(variances.v_hb_sq),
        "v_ha": math.sqrt(variances.v_ha_sq),
        "v_lb": math.sqrt(variances.v_lb_sq),
    }
    want = {"v_hb": 1.186, "v_ha": 2.179, "v_lb": 0.816}
    for name, value in want.items():
        assert abs(got[name] - value) <= 5e-4, (name, got[name], value)
    _pass(1, f"solved RMS amplitudes {got} within 5e-4 of {want}")


def test_criterion_2_security_conditions_close():
    quad = BENCHMARK_QUADS["asymmetric"]
    residuals = check_security(quad, solve_variances(quad, 1.0))
    assert residuals.within(1e-10), residuals

    rng = np.random.default_rng(20_25)
    checked = 0
    worst = 0.0
    while checked < 1000:
        r = np.exp(rng.uniform(np.log(100.0), np.log(100_000.0), 4))
        candidate = ResistorQuad(r_la=r[0], r_ha=r[1], r_lb=r[2], r_hb=r[3])
        try:
            variances = solve_variances(candidate, 1.0)
        except (InfeasibleConfigError, SingularDenominatorError):
            continue
        residuals = check_security(candidate, variances)
        assert residuals.within(1e-10), (candidate, residuals)
        worst = max(worst, residuals.worst)
        checked += 1
    _pass(2, f"all residuals < 1e-10 on 1000 random feasible quads (worst {worst:.2e})")


def test_criterion_3_symmetric_special_case_is_exact():
    quad = BENCHMARK_QUADS["symmetric"]
    variances = solve_variances(quad, 1.0)
    assert (
        variances.v_la_sq,
        variances.v_ha_sq,
        variances.v_lb_sq,
        variances.v_hb_sq,
    ) == (1.0, 9.0, 1.0, 9.0)
    for state in LineState:
        _, _, cross = wire_moments(*quad.connected(state), *variances.connected(state))
        assert abs(cross) <= 1e-15, (state, cross)
    _pass(3, "variances scale exactly with resistance and both cross moments are zero")


def test_criterion_4_ber_is_half_on_all_indicators(benchmark_runs):
    summaries = []
    for name, (_, result) in benchmark_runs.items():
        report = ber_report(result)
        for entry in report:
            assert 0.495 <= entry.ber <= 0.505, (name, entry)
        summaries.append(
            name + ": " + ", ".join(f"{entry.ber:.2%}" for entry in report)
        )
    _pass(4, f"BER within [49.5%, 50.5%] at {GATE_BITS} bits ({'; '.join(summaries)})")


def test_criterion_5_wrong_variances_are_detected():
    quad = BENCHMARK_QUADS["asymmetric"]
    equilibrium = NoiseVariances(v_la_sq=1.0, v_ha_sq=10.0, v_lb_sq=5.0, v_hb_sq=9.0)
    config = SimConfig(
        quad=quad,
        variances=equilibrium,
        samples_per_bit=GATE_SAMPLES,
        num_bits=10_000,
        master_seed=404,
    )
    entry = estimate_ber(run_exchange(config, threads=0), Indicator.CURRENT_VARIANCE)
    assert entry.leak > 0.2, entry
    _pass(5, f"thermal-equilibrium variances leak {entry.leak:.3f} through the current variance")


def test_criterion_6_mean_statistics_match_theory(benchmark_runs):
    config, result = benchmark_runs["asymmetric"]
    current, voltage, cross = wire_moments(
        *config.quad.connected(LineState.LH), *config.variances.connected(LineState.LH)
    )
    deviations = []
    for indicator, target in (
        (Indicator.VOLTAGE_VARIANCE, voltage),
        (Indicator.CURRENT_VARIANCE, current),
        (Indicator.CROSS_CORRELATION, cross),
    ):
        values = result.indicator_values(indicator)
        standard_error = values.std(ddof=1) / math.sqrt(values.size)
        deviation = abs(values.mean() - target) / standard_error
        assert deviation < 5.0, (indicator, deviation)
        deviations.append(f"{indicator.value} {deviation:.2f} SE")
    _pass(6, f"per-bit means match the closed-form moments ({', '.join(deviations)})")


def test_criterion_7_histograms_indistinguishable(benchmark_runs):
    _, result = benchmark_runs["asymmetric"]
    fractions = []
    for indicator in Indicator:
        hist = histogram(result, indicator, 200)
        lh = hist.counts_lh.astype(float)
        hl = hist.counts_hl.astype(float)
        occupied = (lh + hl) > 0
        bound = 5.0 * np.sqrt(lh + hl) + 5.0
        ok = np.abs(lh - hl)[occupied] <= bound[occupied]
        fraction = ok.mean()
        assert fraction >= 0.99, (indicator, fraction)
        fractions.append(f"{indicator.value} {fraction:.3f}")
    _pass(7, f"per-bin counts within the Poisson bound ({', '.join(fractions)})")


def test_criterion_8_artifacts_identical_across_thread_counts(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "resistors_ohm": {
                    "r_la": 1000.0, "r_ha": 10_000.0, "r_lb": 5000.0, "r_hb": 9000.0,
                },
                "v_la_variance_v2": 1.0,
                "samples_per_bit": 100,
                "num_bits": 240,
                "master_seed": 606,
                "histogram_bins": 16,
            }
        )
    )
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["run", str(config_path), str(serial), "--threads", "1"]) == 0
    assert main(["run", str(config_path), str(threaded), "--threads", "4"]) == 0
    names = [
        "ber.csv",
        "hist_current_variance.csv",
        "hist_voltage_variance.csv",
        "hist_cross_correlation.csv",
        "scatter.csv",
        "metadata.json",
    ]
    for name in names:
        assert (serial / name).read_bytes() == (threaded / name).read_bytes(), name
    _pass(8, "artifact bytes identical for --threads 1 and --threads 4")
