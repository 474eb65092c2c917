"""Command-line front end: solve variances, check security, run an exchange.

Reads a JSON configuration file and writes plain CSV artifacts plus a
metadata record that reproduces the run bit for bit. Exit statuses are
stable API: 0 success/PASS, 1 usage/parse/IO error, 2 infeasible
configuration, 3 security check FAIL.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice
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
    MAX_BIN_COUNT,
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
# Each config key's default: SimConfig's, and the histogram bin count, which only the CLI has
_DEFAULTS = {field.name: field.default for field in fields(SimConfig)}
_DEFAULTS["histogram_bins"] = DEFAULT_HISTOGRAM_BINS
# The integer config keys and the `run` flag that overrides each
_INT_KEYS = (
    ("num_bits", "--bits"),
    ("samples_per_bit", "--samples"),
    ("master_seed", "--seed"),
    ("histogram_bins", "--bins"),
)
# Rows _write_csv formats by one % each
_CSV_BLOCK_ROWS = 4096
# The header and row format of each CSV artifact. Every line is the one csv.writer
# would give: no field needs quoting, and %.17g on a Python float is full double
# precision with a '.' separator. The histogram's edges come formatted, each once.
_BER_CSV = (
    "indicator,ber_percent,leak_percent,threshold,bits_lh,bits_hl",
    "%s,%.17g,%.17g,%.17g,%s,%s",
)
_HIST_CSV = ("bin_low,bin_high,count_lh,count_hl", "%s,%s,%s,%s")
_SCATTER_CSV = ("v_e_volts,i_e_amps", "%.17g,%.17g")
# Each security residual and the observable whose LH/HL mismatch it measures.
_RESIDUAL_OBSERVABLES = {
    "current_residual": "current variance",
    "voltage_residual": "voltage variance",
    "cross_residual": "voltage-current cross moment",
}


@dataclass(frozen=True)
class FileConfig:
    """Validated contents of a configuration file."""

    quad: ResistorQuad
    v_la_sq: float | None
    explicit_variances: NoiseVariances | None
    state_policy: StatePolicy
    ints: dict[str, int]  # the value of every key in _INT_KEYS


def _tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite, positive residual bound."""
    try:
        (value,) = require_real(("tolerance",), float(text))
    except ValueError as exc:  # from float(), or the real rule's ValidationError
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def load_config(path: str | Path) -> FileConfig:
    """Parse and validate a JSON config file. Unknown keys are ignored."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge int literal, deep nesting
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path} must hold a JSON object")

    quad = _real_block(raw, "resistors_ohm", ResistorQuad)
    v_la_sq = None
    if "v_la_variance_v2" in raw:
        (v_la_sq,) = require_real(("v_la_variance_v2",), raw["v_la_variance_v2"])
    explicit = _real_block(raw, "variances_v2", NoiseVariances) if "variances_v2" in raw else None

    policy_name = raw.get("state_policy", _DEFAULTS["state_policy"].value)
    try:
        policy = StatePolicy(policy_name)
    except ValueError:
        names = ", ".join(p.value for p in StatePolicy)
        raise ValidationError(f"state_policy must be one of {names}, got {policy_name!r}")

    ints = {key: raw.get(key, _DEFAULTS[key]) for key, _ in _INT_KEYS}
    for key, value in ints.items():
        require_int(key, value)
    return FileConfig(quad, v_la_sq, explicit, policy, ints)


def _real_block(raw: dict, key: str, record: type):
    """``record`` built from the JSON object raw[key], one real number per field, as floats."""
    block = raw.get(key)
    if not isinstance(block, dict):
        raise ValidationError(f"config needs a {key!r} object")
    values = {}
    for name in (field.name for field in fields(record)):
        if name not in block:
            raise ValidationError(f"{key} is missing {name!r}")
        (values[name],) = require_real((f"{key}.{name}",), block[name])
    return record(**values)


def _solved(config: FileConfig, missing: str) -> NoiseVariances:
    """The variances solved from the anchor variance; ``missing`` is the error when it is absent."""
    if config.v_la_sq is None:
        raise ValidationError(missing)
    return solve_variances(config.quad, config.v_la_sq)


def _decimal(value: float, places: int) -> str:
    """``value`` to ``places`` decimals, or to 6 significant digits where those read all zeros."""
    text = f"{value:.{places}f}"
    return text if text.strip("-0.") else f"{value:.6g}"


def cmd_solve(args: argparse.Namespace) -> int:
    variances = _solved(load_config(args.config), "solve needs 'v_la_variance_v2' in the config")
    for name, value in asdict(variances).items():
        print(f"{name[:-3]},{_decimal(value, 5)},{_decimal(math.sqrt(value), 3)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.solve:
        variances = _solved(config, "check --solve needs 'v_la_variance_v2' in the config")
    elif (variances := config.explicit_variances) is None:
        raise ValidationError(
            "check needs an explicit 'variances_v2' block (or pass --solve "
            "to derive it from 'v_la_variance_v2')"
        )
    residuals = check_security(config.quad, variances)
    values = residuals._asdict()
    for name, value in values.items():
        print(f"{name},{value:.17g}")
    if residuals.within(args.tolerance):
        print("PASS")
        return 0
    print("FAIL")
    worst = max(values, key=values.get)
    print(
        f"FAIL: {worst} is {values[worst]:.17g}, not below the tolerance {args.tolerance:g}; "
        f"the {_RESIDUAL_OBSERVABLES[worst]} differs between the LH and HL states",
        file=sys.stderr,
    )
    return 3


def _rewrite(path: Path, lines) -> None:
    """Write ``lines`` to ``path`` in place, streamed, and end the file where they end.

    The file is opened without O_TRUNC: on ext4 (auto_da_alloc), truncating a
    file that holds data forces its writeback on close, and the next run's
    truncate of that file then waits for the disk. Symlinks, hard links and the
    mode of an existing file fare as with a truncating open, and a write that
    fails part-way leaves only the lines written before it.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as handle:
        try:
            handle.writelines(lines)
        finally:
            handle.truncate()


def _write_csv(path: Path, header: str, row_format: str, rows) -> None:
    """Write a CSV file: the header line, then ``row_format % tuple(row)`` per row, streamed.

    Each block of _CSV_BLOCK_ROWS rows is formatted by one ``%`` on its fields.
    """
    rows = iter(rows)
    line = row_format + "\n"

    def blocks():
        yield f"{header}\n"
        while block := list(islice(rows, _CSV_BLOCK_ROWS)):
            yield (line * len(block)) % tuple(chain.from_iterable(block))

    _rewrite(path, blocks())


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    ints = {
        key: config.ints[key] if (override := getattr(args, flag[2:])) is None else override
        for key, flag in _INT_KEYS
    }
    bins = ints["histogram_bins"]
    require_int("histogram bin count", bins, 1, MAX_BIN_COUNT)
    # each histogram's edges are made after the exchange: a count whose edges
    # cannot be allocated fails here, before it, with the same MemoryError
    np.empty(bins + 1)
    sim = SimConfig(
        config.quad,
        config.explicit_variances
        or _solved(config, "config needs 'variances_v2' or 'v_la_variance_v2'"),
        state_policy=config.state_policy,
        **{key: value for key, value in ints.items() if key != "histogram_bins"},
    )

    # mkdir itself shows that the output directory can be made, with its own error if not;
    # the levels it made go again, so a run that then fails leaves no directory
    outdir = Path(args.outdir)
    made = [path for path in (outdir, *outdir.parents) if not path.exists()]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    finally:
        for path in made:  # deepest first; a level mkdir did not make is left as it is
            with suppress(OSError):
                path.rmdir()
    result = run_exchange(sim, threads=args.threads)
    report = ber_report(result)
    hists = {indicator: histogram(result, indicator, bins) for indicator in Indicator}
    # the first bit of each state, LH first, drawn together; ber_report has raised
    # unless both states are present
    traces = scatter_trace(
        sim, [(state, int(np.argmax(result.state_mask(state)))) for state in LineState]
    )

    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "ber.csv",
        *_BER_CSV,
        (
            (e.indicator.value, 100.0 * e.ber, 100.0 * e.leak, e.threshold, e.bits_lh, e.bits_hl)
            for e in report
        ),
    )
    for indicator, hist in hists.items():
        # each inner edge is the high of one bin and the low of the next: formatted once
        edges = [f"{edge:.17g}" for edge in hist.edges.tolist()]
        _write_csv(
            outdir / f"hist_{indicator.value}.csv",
            *_HIST_CSV,
            zip(edges[:-1], edges[1:], hist.counts_lh.tolist(), hist.counts_hl.tolist()),
        )
    _write_csv(outdir / "scatter.csv", *_SCATTER_CSV, traces.reshape(-1, 2).tolist())

    # the inverse of load_config: fed back to `run`, it reproduces every artifact
    metadata = {
        "resistors_ohm": asdict(sim.quad),
        "variances_v2": asdict(sim.variances),
        **ints,
        "state_policy": sim.state_policy.value,
        "generator_algorithm": GENERATOR_ALGORITHM,
        "numpy_version": np.__version__,
        "tool_version": __version__,
    }
    if config.v_la_sq is not None:
        metadata["v_la_variance_v2"] = config.v_la_sq
    _rewrite(outdir / "metadata.json", (json.dumps(metadata, indent=2, sort_keys=True), "\n"))
    print(f"artifacts written to {outdir}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kljn argument parser, built on the first call; main parses with it every time."""
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
        help="check the variances solved from v_la_variance_v2 instead of variances_v2",
    )
    check.set_defaults(handler=cmd_check)

    run = sub.add_parser("run", help="run the Monte-Carlo exchange and write CSV artifacts")
    run.add_argument("config", help="JSON configuration file")
    run.add_argument("outdir", help="output directory for the artifacts")
    for key, flag in _INT_KEYS:
        run.add_argument(flag, type=int, default=None, help=f"override {key}")
    run.add_argument(
        "--threads", type=int, default=0, help="worker processes, at most the CPU count (0: all)"
    )
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
    except MemoryError as exc:
        # e.g. a bit count whose per-bit columns cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
