"""Deterministic Gaussian noise streams and the thermal-noise correspondence.

Every stream is selected in O(1) by a (master_seed, stream_id) pair feeding a
counter-based generator (numpy's Philox, 4x64), so any stream of a run can be
regenerated independently and in any order: full reproducibility under any
degree of parallelism. The Johnson-noise helpers map between generator
variances and the physical 4kTR picture, where a variance that is not in
thermal equilibrium simply corresponds to a resistor-specific temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

BOLTZMANN_J_PER_K = 1.380649e-23  # exact by SI definition

# Recorded in run metadata; reproducing a run requires this algorithm.
GENERATOR_ALGORITHM = "philox4x64"

_UINT64_MAX = 2**64 - 1

# Stream-id layout: each bit owns a block of 8 consecutive ids, one per
# generator slot. Slots 4-7 are reserved; slot 4 of bit 0 doubles as the
# state-assignment coin stream, which no noise generator ever uses.
STREAM_STRIDE = 8
GEN_LA, GEN_HA, GEN_LB, GEN_HB = 0, 1, 2, 3
STATE_COIN_STREAM_ID = 4


def stream_id_for(bit_index: int, generator_index: int) -> int:
    """Stream id of one generator slot of one bit: bit_index * 8 + slot."""
    if not 0 <= generator_index < STREAM_STRIDE:
        raise ValidationError(f"generator_index must be in [0, 8), got {generator_index}")
    if bit_index < 0:
        raise ValidationError(f"bit_index must be non-negative, got {bit_index}")
    stream_id = bit_index * STREAM_STRIDE + generator_index
    if stream_id > _UINT64_MAX:
        raise ValidationError(f"stream id {stream_id} exceeds 64 bits")
    return stream_id


def _require_uint64(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value <= _UINT64_MAX:
        raise ValidationError(f"{name} must fit in an unsigned 64-bit word, got {value}")


@dataclass(frozen=True, slots=True)
class StreamSeed:
    """Identity of one noise stream.

    Identical pairs reproduce the stream bit for bit; distinct pairs give
    statistically independent streams. The pair is used directly as the
    two-word Philox key, so no sequential skipping is ever needed.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        _require_uint64("master_seed", self.master_seed)
        _require_uint64("stream_id", self.stream_id)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def gaussian_block(n: int, variance: float, seed: StreamSeed) -> np.ndarray:
    """Draw ``n`` independent zero-mean Gaussian samples with the given variance.

    Deterministic in ``seed``; variance 0 yields exact zeros.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"sample count must be a non-negative integer, got {n!r}")
    if not (isinstance(variance, (int, float)) and math.isfinite(variance)) or variance < 0:
        raise ValidationError(f"variance must be finite and non-negative, got {variance!r}")
    return seed.generator().normal(0.0, math.sqrt(variance), n)


def standard_normal_streams(
    master_seed: int, stream_ids: np.ndarray, samples: int, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with unit-variance draws of many streams, ``stream_ids.shape + (samples,)``.

    Each stream's samples are bit for bit those of
    ``StreamSeed(master_seed, stream_id).generator().standard_normal(samples)``:
    one Philox is re-keyed per stream with a zeroed counter, which costs a
    fraction of building a generator per stream. ``out`` must be a writable,
    C-contiguous float64 array, so that no row is drawn into a copy; it is
    returned.
    """
    _require_uint64("master_seed", master_seed)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
        raise ValidationError(f"sample count must be a non-negative integer, got {samples!r}")
    stream_ids = np.asarray(stream_ids)
    if stream_ids.size and (stream_ids.dtype.kind not in "iu" or stream_ids.min() < 0):
        raise ValidationError("stream ids must be unsigned 64-bit integers")
    shape = stream_ids.shape + (samples,)
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValidationError(
            f"out must be a writable C-contiguous float64 array of shape {shape}"
        )
    key = [master_seed, 0]
    fresh_stream = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator = np.random.Philox()
    draw = np.random.Generator(bit_generator).standard_normal
    rows = out.reshape(stream_ids.size, samples)
    # a memoryview yields the ids as Python ints one at a time, with no list of them all
    for row, stream_id in zip(rows, memoryview(stream_ids.astype(np.uint64, copy=False).ravel())):
        key[1] = stream_id
        bit_generator.state = fresh_stream
        draw(out=row)
    return out


@dataclass(frozen=True, slots=True)
class JohnsonParams:
    """Temperature (K) and bandwidth (Hz) for thermal-noise conversions."""

    temperature: float
    bandwidth: float
    boltzmann_constant: float = field(default=BOLTZMANN_J_PER_K, init=False)

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValidationError(f"temperature must be positive, got {self.temperature!r}")
        if not self.bandwidth > 0:
            raise ValidationError(f"bandwidth must be positive, got {self.bandwidth!r}")


def johnson_variance(resistance: float, params: JohnsonParams) -> float:
    """Band-limited thermal-noise voltage variance 4*k*T*R*B of a resistor."""
    if not resistance > 0:
        raise ValidationError(f"resistance must be positive, got {resistance!r}")
    return 4.0 * params.boltzmann_constant * params.temperature * resistance * params.bandwidth


def effective_temperature(resistance: float, variance: float, bandwidth: float) -> float:
    """Temperature at which physical Johnson noise would match ``variance``.

    Inverse of johnson_variance; emulated generator amplitudes typically map
    to enormous effective temperatures.
    """
    if not resistance > 0 or not variance > 0 or not bandwidth > 0:
        raise ValidationError("resistance, variance and bandwidth must all be positive")
    return variance / (4.0 * BOLTZMANN_J_PER_K * resistance * bandwidth)
