"""Monte-Carlo key-exchange experiment from the eavesdropper's bench.

Each transferred bit puts one resistor pair on the wire for a window of noise
samples; the eavesdropper records the window's current variance, voltage
variance and voltage-current cross moment, then tries to classify bits by
thresholding one of those indicators at its pooled median. A secure
configuration pins every indicator's bit error rate at 50%.

All randomness is keyed by (master_seed, per-bit stream ids), so a run is a
pure function of its configuration: any bit can be recomputed in isolation
and parallel execution cannot change results.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import LineState, NoiseVariances, ResistorQuad, superpose
from .errors import KljnError, ValidationError, require_int, require_member
from .noise import UINT64_MAX, NormalStreams, StreamSeed

# The per-bit primitives stay importable from this module; the batched
# kernel reproduces them bit for bit without calling them.
from .circuit import line_signals  # noqa: F401
from .noise import gaussian_block  # noqa: F401

# A kernel block holds at most _BLOCK_SAMPLES samples per source array (512 KiB
# of float64), which bounds a chunk's three sample buffers to 1.5 MB at any window
# length, and at most _BLOCK_BITS bits, which bounds its stream ids, row order and
# reorder copy when windows are short. Besides its samples, each block costs about
# 75 numpy and Python calls, 55-70 us on a 2-CPU Xeon with numpy 2.4: about 2 % of
# a 65-bit block's time at 1000 samples per bit. The columns do not depend on the
# block shape.
_BLOCK_SAMPLES = 65_536
_BLOCK_BITS = 512
# Values per message a child sends (64 KiB of float64): the receiving end reads a
# whole message into a buffer of its own before it copies it into the columns.
_PIECE = 8192
# The largest buffer a run allocates for its windows is scatter_trace's
# (2, 2, samples_per_bit) float64 draws, 32 bytes a sample: within this bound
# every buffer has a byte count numpy can represent, so an oversized window
# fails with MemoryError.
MAX_SAMPLES_PER_BIT = sys.maxsize // 32

# Stream-id layout: each bit owns a block of 8 consecutive ids, one per
# generator slot. Slots 4-7 are reserved; slot 4 of bit 0 doubles as the
# state-assignment coin stream, which no noise generator ever uses.
STREAM_STRIDE = 8
GEN_LA, GEN_HA, GEN_LB, GEN_HB = 0, 1, 2, 3
STATE_COIN_STREAM_ID = 4
# Bits that have stream ids: bit 2**61 - 1 owns the last ids, up to 2**64 - 1.
MAX_BITS = (UINT64_MAX + 1) // STREAM_STRIDE
# Generator slots of the connected (alice, bob) sources in each state, as columns
_LH_SLOTS = np.array([[GEN_LA], [GEN_HB]], dtype=np.uint64)
_HL_SLOTS = np.array([[GEN_HA], [GEN_LB]], dtype=np.uint64)


class StatePolicy(Enum):
    """How the true line state of each bit is chosen."""

    ALTERNATE = "alternate"  # bit i is LH for even i, HL for odd i
    RANDOM = "random"  # fair coin per bit from a dedicated stream


class Indicator(Enum):
    """The three second-order statistics the eavesdropper can threshold."""

    CURRENT_VARIANCE = "current_variance"
    VOLTAGE_VARIANCE = "voltage_variance"
    CROSS_CORRELATION = "cross_correlation"


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full description of one exchange experiment, of at most MAX_BITS (2**61) bits
    and MAX_SAMPLES_PER_BIT samples per bit."""

    quad: ResistorQuad
    variances: NoiseVariances
    samples_per_bit: int = 1000
    num_bits: int = 1_000_000
    master_seed: int = 0
    state_policy: StatePolicy = StatePolicy.ALTERNATE

    def __post_init__(self) -> None:
        require_int("samples_per_bit", self.samples_per_bit, 2, MAX_SAMPLES_PER_BIT)
        require_int("num_bits", self.num_bits, 1, MAX_BITS)
        require_int("master_seed", self.master_seed, 0, UINT64_MAX)
        require_member("quad", self.quad, ResistorQuad)
        require_member("variances", self.variances, NoiseVariances)
        require_member("state_policy", self.state_policy, StatePolicy)


def _stream_ids(bits: np.ndarray, hl_flags: np.ndarray) -> np.ndarray:
    """Stream ids of the connected (alice, bob) sources of ``bits``, shape (2, bits)."""
    stream_ids = np.where(hl_flags, _HL_SLOTS, _LH_SLOTS)
    stream_ids += bits.astype(np.uint64) * np.uint64(STREAM_STRIDE)
    return stream_ids


def _wire_signals(
    streams: NormalStreams,
    config: SimConfig,
    bits: np.ndarray,
    hl_flags: np.ndarray,
    draws: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Wire (v_e, i_e) windows of ``bits``, in state HL where hl_flags, and their row order.

    Returns (draws, order): row j of v_e and i_e is the window of bits[order[j]].
    The rows hold the LH bits, then the HL bits, each in their given order, so
    that each state's resistances and variances act on one run of rows as
    scalars. Every row goes through superpose, the wire equations, and is
    bit-identical to the bit simulated alone. The sources are drawn from
    ``streams`` (keyed by config.master_seed) into ``draws`` (C-contiguous,
    shape (2, bits, samples_per_bit)), which is returned holding v_e and i_e;
    ``scratch`` (bits, samples_per_bit) is overwritten.
    """
    order = np.argsort(hl_flags, kind="stable")
    hl_flags = hl_flags[order]
    streams.fill(_stream_ids(bits[order], hl_flags), draws)
    lh_count = hl_flags.size - int(np.count_nonzero(hl_flags))
    for state, rows in ((LineState.LH, slice(0, lh_count)), (LineState.HL, slice(lh_count, None))):
        alice, bob = draws[:, rows]
        s_a, s_b = config.variances.connected(state)
        alice *= math.sqrt(s_a)
        bob *= math.sqrt(s_b)
        superpose(*config.quad.connected(state), alice, bob, scratch[rows])
    return draws, order


def _window_moments(v_e: np.ndarray, i_e: np.ndarray, out: np.ndarray, prod: np.ndarray) -> None:
    """Write (var_v, var_i, cross) of every window into the rows of ``out`` (3, windows).

    Repeats the ufunc sequence of numpy's own ``np.mean`` and ``np.var(ddof=1)``
    along axis 1 on arrays of the same layout, so the pairwise sums, and with
    them every bit, are theirs. v_e and i_e are centred in place; ``prod``
    (windows, samples) is scratch.
    """
    n = v_e.shape[1]
    var_v, var_i, cross = out
    # raw mean for the cross moment, since the sources are zero-mean by construction
    np.multiply(v_e, i_e, out=prod)
    np.add.reduce(prod, axis=1, out=cross)
    np.true_divide(cross, n, out=cross)
    # unbiased (n-1) variances
    for window, variance in ((v_e, var_v), (i_e, var_i)):
        # the row means, in the row that becomes the variances
        np.add.reduce(window, axis=1, out=variance)
        np.true_divide(variance, n, out=variance)
        # subtract a full-size copy of the row means: numpy's ufuncs would
        # allocate an iterator buffer and run slower for a broadcast operand
        prod[...] = variance[:, np.newaxis]
        np.subtract(window, prod, out=window)
        np.square(window, out=window)
        np.add.reduce(window, axis=1, out=variance)
        np.true_divide(variance, n - 1, out=variance)


def scatter_trace(config: SimConfig, windows) -> np.ndarray:
    """Raw (v_e, i_e) pairs of each (state, bit_index), shape (windows, samples_per_bit, 2).

    Exactly the samples run_exchange reduces to those bits' statistics, in the
    order of ``windows``; every window is checked before any is drawn. All are
    drawn from one NormalStreams by one _wire_signals call.
    """
    windows = list(windows)
    for state, bit_index in windows:
        require_member("state", state, LineState)
        require_int("bit_index", bit_index, 0, config.num_bits - 1)
    hl_flags = np.array([state is LineState.HL for state, _ in windows], dtype=bool)
    bits = np.array([bit_index for _, bit_index in windows], dtype=np.int64)
    k, n = len(windows), config.samples_per_bit
    streams = NormalStreams(config.master_seed)
    (v_e, i_e), order = _wire_signals(
        streams, config, bits, hl_flags, np.empty((2, k, n)), np.empty((k, n))
    )
    return np.stack([v_e, i_e], axis=-1)[np.argsort(order)]


def assign_states(config: SimConfig) -> np.ndarray:
    """True state per bit as a boolean array, True where the state is HL."""
    if config.state_policy is StatePolicy.ALTERNATE:
        mask = np.zeros(config.num_bits, dtype=bool)
        mask[1::2] = True
        return mask
    coin = StreamSeed(config.master_seed, STATE_COIN_STREAM_ID).generator()
    return coin.random(config.num_bits) >= 0.5


# eq=False: identity equality, since == on array columns has no single truth value
@dataclass(frozen=True, slots=True, eq=False)
class ExchangeResult:
    """Per-bit eavesdropper statistics of a whole run as finite, read-only columns by bit index."""

    hl_mask: np.ndarray  # True where the bit's true state is HL
    var_v: np.ndarray  # sample variance of v_e, V**2
    var_i: np.ndarray  # sample variance of i_e, A**2
    cross: np.ndarray  # sample mean of v_e * i_e, V*A

    def __post_init__(self) -> None:
        for name in ("hl_mask", "var_v", "var_i", "cross"):
            # a read-only view, so the caller's array keeps its own flags
            column = np.asarray(getattr(self, name), bool if name == "hl_mask" else np.float64)
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shape = self.hl_mask.shape
        if len(shape) != 1 or not shape == self.var_v.shape == self.var_i.shape == self.cross.shape:
            raise ValidationError("exchange columns must all be 1-D and of the same length")
        for indicator in Indicator:
            if not np.isfinite(self.indicator_values(indicator)).all():
                raise ValidationError(f"{indicator.value} values must all be finite")

    def state_mask(self, state: LineState) -> np.ndarray:
        """Boolean mask of the bits whose true state is ``state``."""
        require_member("state", state, LineState)
        return self.hl_mask if state is LineState.HL else ~self.hl_mask

    def indicator_values(self, indicator: Indicator) -> np.ndarray:
        """All bits' values of one indicator, ordered by bit index."""
        require_member("indicator", indicator, Indicator)
        if indicator is Indicator.CURRENT_VARIANCE:
            return self.var_i
        if indicator is Indicator.VOLTAGE_VARIANCE:
            return self.var_v
        return self.cross


def _block_rows(samples_per_bit: int) -> int:
    """Bits in one full kernel block at windows of ``samples_per_bit`` samples."""
    return min(_BLOCK_BITS, max(1, _BLOCK_SAMPLES // samples_per_bit))


def _simulate_chunk(config: SimConfig, start: int, hl_flags: np.ndarray, columns: np.ndarray):
    """Write (var_v, var_i, cross) of bits [start, start + len(hl_flags)) into ``columns``.

    The generator and the working buffers are made once, for one block, and
    every block reuses them, so the chunk's memory does not churn.
    """
    n = config.samples_per_bit
    rows = min(_block_rows(n), hl_flags.size)
    streams = NormalStreams(config.master_seed)
    draws = np.empty(2 * rows * n)
    prod = np.empty((rows, n))
    # windows past the float range come out inf or nan, which ExchangeResult rejects;
    # the warnings numpy would print for them are silenced in every worker
    with np.errstate(over="ignore", invalid="ignore"):
        for offset in range(0, hl_flags.size, rows):
            flags = hl_flags[offset : offset + rows]
            k = flags.size
            bits = np.arange(start + offset, start + offset + k)
            # a short last block views the first 2*k*n draws: a [:, :k] slice of a
            # (2, rows, n) view is not contiguous, and reshaping it would draw into a copy
            (v_e, i_e), order = _wire_signals(
                streams, config, bits, flags, draws[: 2 * k * n].reshape(2, k, n), prod[:k]
            )
            block = columns[:, offset : offset + k]
            _window_moments(v_e, i_e, block, prod[:k])
            block[:, order] = block.copy()  # column j was computed for bit offset + order[j]


def _pieces(columns: np.ndarray):
    """Each row of ``columns`` in turn, as consecutive slices of at most _PIECE values."""
    for row in columns:
        for start in range(0, row.size, _PIECE):
            yield row[start : start + _PIECE]


def _send_share(receiver, sender, config: SimConfig, start: int, hl_flags: np.ndarray) -> None:
    """Child-process target: send None and _simulate_chunk's rows, or the exception it raised.

    The child first closes its copy of its pipe's receiving end, so that once the
    parent is gone, a send fails with BrokenPipeError instead of blocking. The
    child then exits with status 1 and prints nothing: no one is left to read it.
    """
    receiver.close()
    try:
        with sender:
            try:
                columns = np.empty((3, hl_flags.size))
                _simulate_chunk(config, start, hl_flags, columns)
            except Exception as exc:
                sender.send(exc)
            else:
                sender.send(None)
                for piece in _pieces(columns):
                    sender.send_bytes(piece)
    except BrokenPipeError:
        sys.exit(1)


def run_exchange(config: SimConfig, threads: int = 1) -> ExchangeResult:
    """Transfer num_bits bits and collect every bit's statistics.

    ``threads`` asks for worker processes, at most the machine's CPU count;
    0 picks the CPU count. This process is one of them, so N workers start
    N - 1 child processes. A child outlives neither the call nor a kill of this
    process: once this process is gone, the child's next send fails and it
    exits. A child that dies without its rows raises KljnError; an exception a
    child raises is raised here with its own type. The result is identical for
    every thread count and scheduling order because each bit's streams are
    keyed by its index alone.
    """
    require_int("threads", threads, 0)
    hl_mask = assign_states(config)
    columns = np.empty((3, config.num_bits))
    cpus = os.cpu_count() or 1
    workers = min(threads or cpus, cpus)
    workers = workers if config.num_bits >= 2 * workers else 1
    # contiguous shares; this process computes share 0 while one child computes each other
    bounds = [config.num_bits * k // workers for k in range(workers + 1)]
    shares = list(zip(bounds[1:-1], bounds[2:]))
    receivers, children = [], []
    try:
        for start, stop in shares:
            # imported here, since only a run that starts a child needs multiprocessing
            import multiprocessing
            receiver, sender = multiprocessing.Pipe(duplex=False)
            receivers.append(receiver)
            # the parent's copy of the sending end is closed once the child holds its own,
            # so a child that dies leaves its receiver at end of file. A forked child
            # also holds the earlier children's receiving ends; it frees them when it
            # exits, so after a kill of this process the last child exits first
            with sender:
                child = multiprocessing.Process(
                    target=_send_share,
                    args=(receiver, sender, config, start, hl_mask[start:stop]),
                )
                child.start()
            children.append(child)
        _simulate_chunk(config, 0, hl_mask[: bounds[1]], columns[:, : bounds[1]])
        for child, receiver, (start, stop) in zip(children, receivers, shares):
            try:
                if (error := receiver.recv()) is None:
                    for piece in _pieces(columns[:, start:stop]):
                        receiver.recv_bytes_into(piece)
            except EOFError:
                child.join()
                raise KljnError(
                    f"worker process for bits [{start}, {stop}) exited with code "
                    f"{child.exitcode} before sending its result"
                ) from None
            if error is not None:
                raise error  # out here, so that an EOFError from the child keeps its type
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for receiver in receivers:
            receiver.close()
        for child in children:
            child.join()
    return ExchangeResult(hl_mask, *columns)


@dataclass(frozen=True, slots=True)
class BerEntry:
    """Bit-error-rate result of thresholding one indicator."""

    indicator: Indicator
    ber: float
    leak: float  # |ber - 0.5|, invariant to the classification direction
    threshold: float
    bits_lh: int
    bits_hl: int


def estimate_ber(result: ExchangeResult, indicator: Indicator) -> BerEntry:
    """Median-threshold classification quality of one indicator.

    Pools every bit's indicator value, thresholds at the pooled median
    (above: HL guess, at or below: LH) and counts wrong guesses over all
    bits. 50% means the indicator carries no information.

    Raises ValidationError unless both states are present.
    """
    values, hl_mask = result.indicator_values(indicator), result.hl_mask
    bits_hl = int(np.count_nonzero(hl_mask))
    bits_lh = int(values.size - bits_hl)
    if bits_lh == 0 or bits_hl == 0:
        raise ValidationError(
            f"both line states must be present, got {bits_lh} LH and {bits_hl} HL bits"
        )
    threshold = float(np.median(values))
    predicted_hl = values > threshold
    errors = int(np.count_nonzero(predicted_hl != hl_mask))
    ber = errors / values.size
    return BerEntry(
        indicator=indicator,
        ber=ber,
        leak=abs(ber - 0.5),
        threshold=threshold,
        bits_lh=bits_lh,
        bits_hl=bits_hl,
    )


def ber_report(result: ExchangeResult) -> tuple[BerEntry, ...]:
    """estimate_ber over all three indicators, in Indicator order."""
    return tuple(estimate_ber(result, indicator) for indicator in Indicator)


# np.linspace counts the bin_count + 1 float64 edges as a float, which rounds
# sys.maxsize // 8 edges up to 2**60, a byte count numpy cannot represent; within
# half that bound every histogram buffer has one it can, so an oversized bin count
# fails with MemoryError.
MAX_BIN_COUNT = sys.maxsize // 16


@dataclass(frozen=True, slots=True)
class HistogramData:
    """Per-state counts over shared uniform bin edges."""

    edges: np.ndarray  # bin_count + 1 edges spanning the pooled value range
    counts_lh: np.ndarray
    counts_hl: np.ndarray


def histogram(result: ExchangeResult, indicator: Indicator, bin_count: int) -> HistogramData:
    """Histogram one indicator separately per true state over shared bins.

    Bin edges span the pooled min..max uniformly (numpy's histogram_bin_edges),
    so the two states' distributions are directly comparable bin by bin. Every
    bit lands in exactly one bin.
    """
    require_int("bin_count", bin_count, 1, MAX_BIN_COUNT)
    values, hl_mask = result.indicator_values(indicator), result.hl_mask
    if values.size == 0:
        raise ValidationError("cannot histogram an empty exchange result")
    edges = np.histogram_bin_edges(values, bin_count)
    counts_lh, _ = np.histogram(values[~hl_mask], bins=edges)
    counts_hl, _ = np.histogram(values[hl_mask], bins=edges)
    return HistogramData(edges=edges, counts_lh=counts_lh, counts_hl=counts_hl)
