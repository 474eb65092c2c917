"""Output checks for every benchmark operation, independent of the program.

Expected values come from plain numpy and the circuit equations, never from
`kljn` itself: the wire statistics of a variance set, the noise windows from
the README's stream layout (Philox key ``[master_seed, bit * 8 + slot]``),
the state sequence from the policy. Each check returns a list of failure messages; an empty list
means the operation passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import LAB_SCALE

INDICATORS = ("current_variance", "voltage_variance", "cross_correlation")
SLOT_LA, SLOT_HA, SLOT_LB, SLOT_HB = 0, 1, 2, 3
STREAM_STRIDE = 8
STATE_COIN_STREAM_ID = 4
# Half-width of the BER acceptance band for a secure configuration, in
# standard errors of a fair coin: wide enough that no seed ever fails it.
BER_BAND_SE = 8.0
CHECK_TOLERANCE = 1e-9  # `kljn check` default
# The ROADMAP item-3 defect: a Johnson-scale set that must FAIL but PASSes.
KNOWN_JOHNSON_PASS = "known defect (ROADMAP item 3): Johnson-scale insecure set PASSes"


def feasible(r: list[float]) -> bool:
    """Whether a positive secure variance set exists for the quad.

    Factoring the three equal-statistics conditions gives v_hb and v_lb the
    sign of (r_lb - r_hb) / (r_la - r_ha) while v_ha is always positive, so
    both parties' resistor pairs must be ordered the same way.
    """
    r_la, r_ha, r_lb, r_hb = r
    return (r_la - r_ha) * (r_lb - r_hb) > 0


def _moments(r_a: float, r_b: float, s_a: float, s_b: float) -> tuple[float, float, float]:
    """Current variance, voltage variance and cross moment on the wire (README circuit)."""
    d = (r_a + r_b) ** 2
    return (s_a + s_b) / d, (r_b**2 * s_a + r_a**2 * s_b) / d, (r_a * s_b - r_b * s_a) / d


def mismatch(r: list[float], variances: list[float]) -> float:
    """Largest relative LH-versus-HL difference of the three wire statistics.

    Purely relative, with no absolute floor, so the value does not change
    when all variances are scaled by one factor.
    """
    r_la, r_ha, r_lb, r_hb = r
    v_la, v_ha, v_lb, v_hb = variances
    lh = _moments(r_la, r_hb, v_la, v_hb)
    hl = _moments(r_ha, r_lb, v_ha, v_lb)
    return max(abs(a - b) / max(abs(a), abs(b)) if a or b else 0.0 for a, b in zip(lh, hl))


def expected_hl_mask(policy: str, master_seed: int, num_bits: int) -> np.ndarray:
    """True line state per bit (True = HL) as the README's policies define it."""
    if policy == "alternate":
        return np.arange(num_bits) % 2 == 1
    coin = _stream(master_seed, STATE_COIN_STREAM_ID)
    return coin.random(num_bits) >= 0.5


def _stream(master_seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def expected_scatter(
    r: list[float], variances: list[float], master_seed: int, samples: int, hl_mask: np.ndarray
) -> np.ndarray:
    """scatter.csv rows: first LH bit's (v_e, i_e) samples, then first HL bit's."""
    r_la, r_ha, r_lb, r_hb = r
    v_la, v_ha, v_lb, v_hb = variances
    blocks = []
    for is_hl in (False, True):
        hits = np.flatnonzero(hl_mask == is_hl)
        if hits.size == 0:
            continue
        bit = int(hits[0])
        if is_hl:
            (slot_a, var_a, r_a), (slot_b, var_b, r_b) = (SLOT_HA, v_ha, r_ha), (SLOT_LB, v_lb, r_lb)
        else:
            (slot_a, var_a, r_a), (slot_b, var_b, r_b) = (SLOT_LA, v_la, r_la), (SLOT_HB, v_hb, r_hb)
        v_a = _stream(master_seed, bit * STREAM_STRIDE + slot_a).normal(0.0, math.sqrt(var_a), samples)
        v_b = _stream(master_seed, bit * STREAM_STRIDE + slot_b).normal(0.0, math.sqrt(var_b), samples)
        loop = r_a + r_b
        blocks.append(np.column_stack([(r_b * v_a + r_a * v_b) / loop, (v_b - v_a) / loop]))
    return np.concatenate(blocks)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def check_run_artifacts(outdir: Path, request: dict, golden: dict | None = None) -> list[str]:
    """Check the artifacts of one `kljn run` against independently computed values.

    ``request`` holds what the operation asked for: ``resistors`` (r_la, r_ha,
    r_lb, r_hb), ``v_la``, ``samples``, ``bits``, ``master_seed``, ``policy``
    and ``bins``. ``golden`` optionally maps indicator to the recorded
    ``ber_percent`` and ``threshold``. Columns are looked up by header name.
    """
    failures = []
    bits, samples, seed = request["bits"], request["samples"], request["master_seed"]
    meta = json.loads((outdir / "metadata.json").read_text())
    for key, want in (
        ("num_bits", bits),
        ("samples_per_bit", samples),
        ("master_seed", seed),
        ("state_policy", request["policy"]),
        ("histogram_bins", request["bins"]),
    ):
        if meta.get(key) != want:
            failures.append(f"metadata {key} = {meta.get(key)!r}, asked for {want!r}")
    variances = [meta["variances_v2"][k] for k in ("v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq")]
    if variances[0] != request["v_la"] or not mismatch(request["resistors"], variances) < CHECK_TOLERANCE:
        failures.append(f"metadata variances {variances} are not the secure set for v_la = {request['v_la']}")

    hl_mask = expected_hl_mask(request["policy"], seed, bits)
    bits_hl = int(np.count_nonzero(hl_mask))
    band = BER_BAND_SE * math.sqrt(0.25 / bits)
    rows = {row["indicator"]: row for row in _read_csv(outdir / "ber.csv")}
    if sorted(rows) != sorted(INDICATORS):
        return failures + [f"ber.csv indicators are {sorted(rows)}"]
    for name in INDICATORS:
        row = rows[name]
        if (int(row["bits_lh"]), int(row["bits_hl"])) != (bits - bits_hl, bits_hl):
            failures.append(
                f"{name}: bits_lh/bits_hl = {row['bits_lh']}/{row['bits_hl']}, "
                f"policy gives {bits - bits_hl}/{bits_hl}"
            )
        ber = float(row["ber_percent"]) / 100.0
        if not abs(ber - 0.5) <= band:
            failures.append(f"{name}: BER {ber:.4f} outside 0.5 +- {band:.4f} for a secure set")
        if golden is not None:
            for column in ("ber_percent", "threshold"):
                if float(row[column]) != golden[name][column]:
                    failures.append(
                        f"{name}: {column} {row[column]} differs from recorded {golden[name][column]!r}"
                    )

        hist = _read_csv(outdir / f"hist_{name}.csv")
        counts_lh = sum(int(h["count_lh"]) for h in hist)
        counts_hl = sum(int(h["count_hl"]) for h in hist)
        if len(hist) != request["bins"] or (counts_lh, counts_hl) != (bits - bits_hl, bits_hl):
            failures.append(
                f"hist_{name}: {len(hist)} bins holding {counts_lh}+{counts_hl} bits, "
                f"expected {request['bins']} bins holding {bits - bits_hl}+{bits_hl}"
            )

    scatter = _read_csv(outdir / "scatter.csv")
    got = np.array([[float(s["v_e_volts"]), float(s["i_e_amps"])] for s in scatter])
    want = expected_scatter(request["resistors"], variances, seed, samples, hl_mask)
    if got.shape != want.shape or not np.array_equal(got, want):
        failures.append("scatter.csv differs from the regenerated first-bit windows")
    return failures


def check_design_item(entry: dict, outcomes: list[tuple]) -> tuple[list[str], list[str]]:
    """Judge one design-sweep item; returns (unexpected failures, known-defect failures).

    ``outcomes`` holds one tuple per v_la scale: ``(scale, error_name)`` when
    solve_variances raised, else ``(scale, None, solved, solved_passes,
    perturbed_passes)``.
    """
    failures, known = [], []
    kind = entry["kind"]
    if kind == "random":
        expected_error = None if feasible(entry["r"]) else "InfeasibleConfigError"
    else:
        expected_error = {
            "infeasible": "InfeasibleConfigError",
            "singular": "SingularDenominatorError",
        }.get(kind)
    for scale, error, *result in outcomes:
        where = f"{kind} quad {entry['r']} at v_la = {scale:g}"
        if error != expected_error:
            failures.append(f"{where}: solve raised {error}, expected {expected_error}")
            continue
        if error is not None:
            continue
        solved, solved_passes, perturbed_passes = result
        if solved[0] != scale or not mismatch(entry["r"], solved) < CHECK_TOLERANCE:
            failures.append(f"{where}: solved set {solved} is not secure")
        if not solved_passes:
            failures.append(f"{where}: solved set FAILs the check")
        if perturbed_passes:
            if scale != LAB_SCALE:
                known.append(f"{where}: {KNOWN_JOHNSON_PASS}")
            else:
                failures.append(f"{where}: perturbed set PASSes the check")
    return failures, known
