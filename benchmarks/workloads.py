"""Benchmark workloads and the inputs each one generates from the workload seed.

The program only ever sees what these functions write: a JSON config per
Monte-Carlo workload (plus one master seed per operation, passed as
``--seed``) and a JSON list of resistor quads for the design workload. Every
input is a pure function of the workload seed, so two runs with the same seed
do identical work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ROADMAP north star: the asymmetric quad, 1000 samples per bit, v_la = 1 V^2.
REFERENCE_QUAD = {"r_la": 1000.0, "r_ha": 10000.0, "r_lb": 5000.0, "r_hb": 9000.0}
REFERENCE_V_LA = 1.0
HISTOGRAM_BINS = 200

# Design-sweep scales: lab (v_la = 1 V^2) and Johnson (4kTRB ~ 1e-20 V^2).
LAB_SCALE = 1.0
JOHNSON_SCALE = 1e-20
SWEEP_LOG10_OHM = (2.0, 7.0)
SWEEP_POOL_BATCHES = 8
SWEEP_BATCH_RANDOM_QUADS = 1000
# ROADMAP item 3: variances matching the voltage variance and cross moment of
# this quad in both states, but not the current variance.
ITEM3_QUAD = (1e6, 1e7, 5e6, 9e6)
ITEM3_VARIANCES = (1.0, 4.59, 0.72, 2.0)

DEFAULT_SEED = 1


@dataclass(frozen=True)
class RunWorkload:
    """One `kljn run` per operation on the reference quad."""

    samples_per_bit: int
    bits_per_op: int
    state_policy: str
    threads: int


RUN_WORKLOADS = {
    # Sample-heavy path: the draw and the window reduction dominate.
    "reference": RunWorkload(1000, 2000, "alternate", 1),
    # Per-bit overhead path: stream set-up dominates, the draw is small.
    "short_window": RunWorkload(32, 4000, "random", 1),
    # The only workload that runs the process-pool layer (CLI default on 2 CPUs).
    "reference_pool": RunWorkload(1000, 4000, "alternate", 2),
}
DESIGN_WORKLOAD = "design_sweep"
WORKLOADS = (*RUN_WORKLOADS, DESIGN_WORKLOAD)

# Calibration kernel per workload (see calibration.py): the kernel whose mix
# of work matches the workload's, its arguments, and its time in seconds at
# the reference host speed. A kernel call costs about 5-10 % of an operation.
CALIBRATIONS = {
    "reference": ("exchange_kernel", (200, 1000), 0.020),
    "short_window": ("exchange_kernel", (400, 32), 0.020),
    "reference_pool": ("exchange_kernel", (200, 1000), 0.020),
    DESIGN_WORKLOAD: ("solver_kernel", (500,), 0.0025),
}


def op_seeds(seed: int):
    """Endless, seed-determined sequence of per-operation master seeds."""
    rng = np.random.default_rng([seed, 0x5EED])
    while True:
        yield int(rng.integers(0, 2**63))


def run_config(workload: RunWorkload, seed: int) -> dict:
    """The `kljn run` config file contents for a Monte-Carlo workload."""
    return {
        "resistors_ohm": dict(REFERENCE_QUAD),
        "v_la_variance_v2": REFERENCE_V_LA,
        "samples_per_bit": workload.samples_per_bit,
        "num_bits": workload.bits_per_op,
        "master_seed": next(op_seeds(seed)),
        "state_policy": workload.state_policy,
        "histogram_bins": HISTOGRAM_BINS,
    }


def _sweep_batch(rng: np.random.Generator) -> list[dict]:
    """Random log-uniform quads plus one of each constructed case.

    Each feasible quad carries a perturbation that scales both HL-state
    variances by one factor, which moves all three HL observables by exactly
    that factor: a set the check must FAIL at any scale.
    """
    low, high = SWEEP_LOG10_OHM
    quads = []
    for r in 10.0 ** rng.uniform(low, high, size=(SWEEP_BATCH_RANDOM_QUADS, 4)):
        factor = float(rng.uniform(1.01, 1.25))
        if rng.random() < 0.5:
            factor = 1.0 / factor
        quads.append({"kind": "random", "r": [float(x) for x in r], "hl_factor": factor})

    # Alice's low resistor above her high one, Bob's below: no positive
    # variance set exists (README, "Not every resistor set can be secured").
    a_high, a_low, b_low, b_high = np.sort(10.0 ** rng.uniform(low, high, size=4))
    quads.append({"kind": "infeasible", "r": [float(a_low), float(a_high), float(b_low), float(b_high)]})

    # Alice's resistors one ulp apart with r_lb <= r_la: the v_hb denominator
    # (r_la - r_ha)(r_la + r_lb) vanishes to rounding.
    r_la = float(10.0 ** rng.uniform(low + 1, high))
    r_lb = r_la * float(rng.uniform(0.01, 1.0))
    r_hb = float(10.0 ** rng.uniform(low, high))
    quads.append({"kind": "singular", "r": [r_la, math.nextafter(r_la, math.inf), r_lb, r_hb]})

    quads.append({"kind": "item3", "r": list(ITEM3_QUAD), "variances": list(ITEM3_VARIANCES)})
    return quads


def design_config(seed: int) -> dict:
    """The design-sweep input: a pool of quad batches the operations cycle through."""
    rng = np.random.default_rng([seed, 0xD5])
    return {
        "v_la_scales": [LAB_SCALE, JOHNSON_SCALE],
        "batches": [_sweep_batch(rng) for _ in range(SWEEP_POOL_BATCHES)],
    }


def write_inputs(workload: str, seed: int, workdir: Path) -> Path:
    """Write the workload's input file into ``workdir`` and return its path."""
    if workload in RUN_WORKLOADS:
        content = run_config(RUN_WORKLOADS[workload], seed)
    else:
        content = design_config(seed)
    path = workdir / f"{workload}.json"
    path.write_text(json.dumps(content, indent=1, sort_keys=True) + "\n")
    return path
