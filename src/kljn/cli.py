"""Command-line front end: solve variances, check security, run an exchange.

Reads a JSON configuration file and writes plain CSV artifacts plus a
metadata record that reproduces the run bit for bit. Exit statuses are
stable API: 0 success/PASS, 1 usage/parse/IO error, 2 infeasible
configuration, 3 security check FAIL.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import LineState, NoiseVariances, ResistorQuad
from .errors import (
    InfeasibleConfigError,
    KljnError,
    SingularDenominatorError,
    ValidationError,
    require_int,
    require_real,
)
from .noise import GENERATOR_ALGORITHM
from .simulation import (
    Indicator,
    SimConfig,
    StatePolicy,
    ber_report,
    histogram,
    run_exchange,
    scatter_trace,
)
from .solver import check_security, solve_variances

DEFAULT_HISTOGRAM_BINS = 200
_VARIANCE_FIELDS = ("v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq")
# Each security residual and the observable whose LH/HL mismatch it measures.
_RESIDUAL_OBSERVABLES = {
    "current_residual": "current variance",
    "voltage_residual": "voltage variance",
    "cross_residual": "voltage-current cross moment",
}


def _fmt(value: float) -> str:
    """Full double precision, '.' decimal separator."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class FileConfig:
    """Validated contents of a configuration file."""

    quad: ResistorQuad
    v_la_sq: float | None
    explicit_variances: NoiseVariances | None
    samples_per_bit: int
    num_bits: int
    master_seed: int
    state_policy: StatePolicy
    histogram_bins: int


def _require_number(raw: object, where: str) -> float:
    require_real((where, raw))
    return float(raw)


def _tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite, non-negative residual bound."""
    try:
        value = float(text)
        require_real(("tolerance", value), allow_zero=True)
    except ValueError as exc:  # from float(), or the real rule's ValidationError
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def load_config(path: str | Path) -> FileConfig:
    """Parse and validate a JSON config file. Unknown keys are ignored."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path} must hold a JSON object")

    resistors = raw.get("resistors_ohm")
    if not isinstance(resistors, dict):
        raise ValidationError("config needs a 'resistors_ohm' object")
    try:
        quad = ResistorQuad(
            **{k: _require_number(resistors[k], f"resistors_ohm.{k}") for k in
               ("r_la", "r_ha", "r_lb", "r_hb")}
        )
    except KeyError as exc:
        raise ValidationError(f"resistors_ohm is missing {exc.args[0]!r}") from exc

    v_la_sq = None
    if "v_la_variance_v2" in raw:
        v_la_sq = _require_number(raw["v_la_variance_v2"], "v_la_variance_v2")

    explicit = None
    if "variances_v2" in raw:
        block = raw["variances_v2"]
        if not isinstance(block, dict):
            raise ValidationError("'variances_v2' must be an object")
        try:
            explicit = NoiseVariances(
                **{k: _require_number(block[k], f"variances_v2.{k}") for k in _VARIANCE_FIELDS}
            )
        except KeyError as exc:
            raise ValidationError(f"variances_v2 is missing {exc.args[0]!r}") from exc

    policy_name = raw.get("state_policy", StatePolicy.ALTERNATE.value)
    try:
        policy = StatePolicy(policy_name)
    except ValueError:
        names = ", ".join(p.value for p in StatePolicy)
        raise ValidationError(f"state_policy must be one of {names}, got {policy_name!r}")

    def _int_field(key: str, default: int) -> int:
        value = raw.get(key, default)
        require_int(key, value)
        return value

    return FileConfig(
        quad=quad,
        v_la_sq=v_la_sq,
        explicit_variances=explicit,
        samples_per_bit=_int_field("samples_per_bit", 1000),
        num_bits=_int_field("num_bits", 1_000_000),
        master_seed=_int_field("master_seed", 0),
        state_policy=policy,
        histogram_bins=_int_field("histogram_bins", DEFAULT_HISTOGRAM_BINS),
    )


def _resolve_variances(config: FileConfig) -> NoiseVariances:
    """Explicit variances win; otherwise solve from the anchor variance."""
    if config.explicit_variances is not None:
        return config.explicit_variances
    if config.v_la_sq is None:
        raise ValidationError("config needs 'variances_v2' or 'v_la_variance_v2'")
    return solve_variances(config.quad, config.v_la_sq)


def cmd_solve(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.v_la_sq is None:
        raise ValidationError("solve needs 'v_la_variance_v2' in the config")
    variances = solve_variances(config.quad, config.v_la_sq)
    for name in _VARIANCE_FIELDS:
        value = getattr(variances, name)
        print(f"{name[:-3]},{value:.5f},{math.sqrt(value):.3f}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.explicit_variances is None and not args.solve:
        raise ValidationError(
            "check needs an explicit 'variances_v2' block (or pass --solve "
            "to derive it from 'v_la_variance_v2')"
        )
    residuals = check_security(config.quad, _resolve_variances(config))
    values = {name: getattr(residuals, name) for name in _RESIDUAL_OBSERVABLES}
    for name, value in values.items():
        print(f"{name},{_fmt(value)}")
    if residuals.within(args.tolerance):
        print("PASS")
        return 0
    print("FAIL")
    worst = max(values, key=values.get)
    print(
        f"FAIL: {worst} is {_fmt(values[worst])}, not below the tolerance {args.tolerance:g}; "
        f"the {_RESIDUAL_OBSERVABLES[worst]} differs between the LH and HL states",
        file=sys.stderr,
    )
    return 3


def _write_lines(path: Path, header: str, lines) -> None:
    """Write a CSV file from a header and an iterable of ready-made lines, one at a time."""
    with path.open("w", newline="") as handle:
        handle.write(header)
        handle.writelines(lines)


def _write_artifacts(
    outdir: Path, config: FileConfig, sim: SimConfig, bins: int, threads: int
) -> None:
    result = run_exchange(sim, threads=threads)

    # every line is the one csv.writer would give: no field needs quoting, and
    # f"{x:.17g}" on a Python float is _fmt's full-precision form
    _write_lines(
        outdir / "ber.csv",
        "indicator,ber_percent,leak_percent,threshold,bits_lh,bits_hl\n",
        (
            f"{entry.indicator.value},{_fmt(100.0 * entry.ber)},{_fmt(100.0 * entry.leak)},"
            f"{_fmt(entry.threshold)},{entry.bits_lh},{entry.bits_hl}\n"
            for entry in ber_report(result)
        ),
    )

    for indicator in Indicator:
        hist = histogram(result, indicator, bins)
        edges = hist.edges.tolist()
        _write_lines(
            outdir / f"hist_{indicator.value}.csv",
            "bin_low,bin_high,count_lh,count_hl\n",
            (
                f"{lo:.17g},{hi:.17g},{n_lh},{n_hl}\n"
                for lo, hi, n_lh, n_hl in zip(
                    edges[:-1], edges[1:], hist.counts_lh.tolist(), hist.counts_hl.tolist()
                )
            ),
        )

    # First bit of each state, LH block first; each trace is drawn as its lines are written.
    first_bits = [
        (state, int(np.argmax(mask)))
        for state in (LineState.LH, LineState.HL)
        if (mask := result.state_mask(state)).any()
    ]
    _write_lines(
        outdir / "scatter.csv",
        "v_e_volts,i_e_amps\n",
        (
            f"{v_e:.17g},{i_e:.17g}\n"
            for state, bit in first_bits
            for v_e, i_e in zip(*scatter_trace(state, sim, bit).T.tolist())
        ),
    )

    metadata = {
        "resistors_ohm": {
            "r_la": sim.quad.r_la,
            "r_ha": sim.quad.r_ha,
            "r_lb": sim.quad.r_lb,
            "r_hb": sim.quad.r_hb,
        },
        "variances_v2": {name: getattr(sim.variances, name) for name in _VARIANCE_FIELDS},
        "samples_per_bit": sim.samples_per_bit,
        "num_bits": sim.num_bits,
        "master_seed": sim.master_seed,
        "state_policy": sim.state_policy.value,
        "histogram_bins": bins,
        "generator_algorithm": GENERATOR_ALGORITHM,
        "numpy_version": np.__version__,
        "tool_version": __version__,
    }
    if config.v_la_sq is not None:
        metadata["v_la_variance_v2"] = config.v_la_sq
    with (outdir / "metadata.json").open("w") as handle:
        json.dump(metadata, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    num_bits = config.num_bits if args.bits is None else args.bits
    samples = config.samples_per_bit if args.samples is None else args.samples
    seed = config.master_seed if args.seed is None else args.seed
    bins = config.histogram_bins if args.bins is None else args.bins
    require_int("histogram bin count", bins, 1)

    variances = _resolve_variances(config)
    sim = SimConfig(
        quad=config.quad,
        variances=variances,
        samples_per_bit=samples,
        num_bits=num_bits,
        master_seed=seed,
        state_policy=config.state_policy,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_artifacts(outdir, config, sim, bins, args.threads)
    print(f"artifacts written to {outdir}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kljn",
        description="Generalized KLJN key-exchange simulator: variance solver, "
        "security checker and Monte-Carlo eavesdropper analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the three securing noise variances")
    solve.add_argument("config", help="JSON configuration file")
    solve.set_defaults(handler=cmd_solve)

    check = sub.add_parser("check", help="check the three security conditions")
    check.add_argument("config", help="JSON configuration file")
    check.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-9,
        help="residual tolerance for PASS (default 1e-9)",
    )
    check.add_argument(
        "--solve",
        action="store_true",
        help="derive variances from v_la_variance_v2 instead of requiring variances_v2",
    )
    check.set_defaults(handler=cmd_check)

    run = sub.add_parser("run", help="run the Monte-Carlo exchange and write CSV artifacts")
    run.add_argument("config", help="JSON configuration file")
    run.add_argument("outdir", help="output directory for the artifacts")
    run.add_argument("--bits", type=int, default=None, help="override num_bits")
    run.add_argument("--samples", type=int, default=None, help="override samples_per_bit")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument(
        "--threads", type=int, default=0, help="worker processes, at most the CPU count (0: all)"
    )
    run.add_argument("--bins", type=int, default=None, help="override histogram bin count")
    run.set_defaults(handler=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InfeasibleConfigError, SingularDenominatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KljnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # e.g. a resistance whose square exceeds the float range
        print(f"error: result out of floating-point range: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
