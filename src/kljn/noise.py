"""Deterministic Gaussian noise streams and the thermal-noise correspondence.

Every stream is selected in O(1) by a (master_seed, stream_id) pair feeding a
counter-based generator (numpy's Philox, 4x64), so any stream of a run can be
regenerated independently and in any order: full reproducibility under any
degree of parallelism. The Johnson-noise helpers map between generator
variances and the physical 4kTR picture, where a variance that is not in
thermal equilibrium simply corresponds to a resistor-specific temperature.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _DOUBLE_MAX, _NORMAL_MIN
from .errors import GeneratorLayoutError, ValidationError, require_int, require_real

BOLTZMANN_J_PER_K = 1.380649e-23  # exact by SI definition

# Recorded in run metadata; reproducing a run requires this algorithm.
GENERATOR_ALGORITHM = "philox4x64"

# Master seeds and stream ids are the two 64-bit words of a Philox key.
UINT64_MAX = 2**64 - 1


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
        require_int("master_seed", self.master_seed, 0, UINT64_MAX)
        require_int("stream_id", self.stream_id, 0, UINT64_MAX)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def gaussian_block(n: int, variance: float, seed: StreamSeed) -> np.ndarray:
    """Draw ``n`` independent zero-mean Gaussian samples of ``variance``, seeded by ``seed``."""
    require_int("sample count", n, 0)
    require_real(("variance",), variance)
    return seed.generator().normal(0.0, math.sqrt(variance), n)


class _PhiloxState(ctypes.Structure):
    """The leading fields of numpy's ``philox_state`` (numpy/random/src/philox/philox.h),
    at ``ctypes.state_address``: the ones a stream's re-keying writes."""

    _fields_ = [
        ("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
        ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
        ("buffer_pos", ctypes.c_int),
    ]


# The streams construction draws through fill and compares with fresh
# generators. 9 samples take at least 9 words, past the first refill of
# Philox's 4-word output buffer, so the second stream starts after a stream
# that advanced the counter and left words in the buffer.
_PROBE_SEED = 0x0123456789ABCDEF
_PROBE_IDS = (0xFEDCBA9876543210, 1)
_PROBE_SAMPLES = 9


@functools.cache
def _standard_normal_fill():
    """numpy's C ``random_standard_normal_fill(bitgen_t *, npy_intp, double *)``.

    The function numpy's own CFFI example calls; it is exported by the
    ``numpy.random._generator`` extension and draws the values of
    ``Generator.standard_normal`` without its argument parsing, output check
    and bit-generator lock. Resolved on first use, so importing ``kljn`` never
    depends on it.
    """
    from numpy.random import _generator

    try:
        fill = ctypes.PyDLL(_generator.__file__).random_standard_normal_fill
    except AttributeError:
        raise GeneratorLayoutError(
            f"numpy {np.__version__}'s random._generator exports no "
            "random_standard_normal_fill, so its streams cannot be drawn"
        ) from None
    fill.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    fill.restype = None
    return fill


@functools.cache
def _probe_streams() -> bytes:
    """The bytes of the probe streams, each drawn by a fresh generator."""
    return b"".join(
        StreamSeed(_PROBE_SEED, stream_id).generator().standard_normal(_PROBE_SAMPLES).tobytes()
        for stream_id in _PROBE_IDS
    )


class NormalStreams:
    """Unit-variance Gaussian draws of any stream of one master seed, from one Philox.

    Each stream's samples are bit for bit those of
    ``StreamSeed(master_seed, stream_id).generator().standard_normal(samples)``.
    Philox is counter-based, so writing the key ``[master_seed, stream_id]``,
    a zero counter and an empty output buffer is a fresh stream. Those words
    are written in place through numpy's ``Philox.ctypes.state_address``, by
    three scalar ctypes views made once, which costs a fraction of building a
    generator or setting its ``state`` per stream, and each stream is drawn by
    one call to numpy's C ``random_standard_normal_fill``, the call numpy's
    CFFI example makes.
    Construction draws two probe streams through ``fill`` and raises
    GeneratorLayoutError unless their bytes are those of fresh generators, so
    a numpy whose state layout or C draw differs is refused before any stream
    is drawn. The C call bypasses numpy's bit-generator lock, so one object
    serves one thread; the kernel builds one per chunk.
    """

    __slots__ = (
        "_bit_generator", "_stream_id", "_counter_low", "_buffer_pos", "_fill", "_bitgen_ptr"
    )

    def __init__(self, master_seed: int) -> None:
        require_int("master_seed", master_seed, 0, UINT64_MAX)
        # any fixed seed will do, since every stream is re-keyed before it
        # draws; a seed spares reading OS entropy. The counter starts at zero,
        # and fill zeroes only word 0: Philox carries into word 1 only after
        # 2**64 blocks (2**66 samples of one stream)
        self._bit_generator = np.random.Philox(0)
        interface = self._bit_generator.ctypes
        state = _PhiloxState.from_address(interface.state_address)
        key = state.key.contents
        # scalar views of the words fill writes per stream: key word 1, counter
        # word 0 and buffer_pos. self._bit_generator keeps their memory alive
        self._stream_id = ctypes.c_uint64.from_buffer(key, ctypes.sizeof(ctypes.c_uint64))
        self._counter_low = ctypes.c_uint64.from_buffer(state.ctr.contents)
        self._buffer_pos = ctypes.c_int.from_buffer(state, _PhiloxState.buffer_pos.offset)
        self._fill = _standard_normal_fill()
        # the bitgen_t the C draw takes
        self._bitgen_ptr = interface.bit_generator
        key[0] = _PROBE_SEED
        probe = np.empty((len(_PROBE_IDS), _PROBE_SAMPLES))
        if self.fill(np.array(_PROBE_IDS, np.uint64), probe).tobytes() != _probe_streams():
            raise GeneratorLayoutError(
                f"numpy {np.__version__}'s Philox, re-keyed in place and drawn by "
                "random_standard_normal_fill, does not give the streams of fresh "
                "generators, so its streams cannot be drawn"
            )
        key[0] = master_seed

    def fill(self, stream_ids, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, shape ``stream_ids.shape + (samples,)``, one stream per row; return it.

        ``out`` must be a writable, C-contiguous float64 array, so that each
        row is drawn at its own address and none into a copy.
        """
        stream_ids = np.asarray(stream_ids)
        if stream_ids.size and (stream_ids.dtype.kind not in "iu" or stream_ids.min() < 0):
            raise ValidationError("stream ids must be unsigned 64-bit integers")
        if not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.ndim == stream_ids.ndim + 1
            and out.shape[:-1] == stream_ids.shape
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValidationError(
                "out must be a writable C-contiguous float64 array of shape "
                f"{stream_ids.shape} + (samples,)"
            )
        if not out.size:
            return out
        stream_word, counter_low, buffer_pos, fill, bitgen_ptr = (
            self._stream_id, self._counter_low, self._buffer_pos, self._fill, self._bitgen_ptr
        )
        samples = out.shape[-1]
        row_bytes = 8 * samples
        base = out.ctypes.data
        # ctypes objects pass as they are, where Python ints would be converted
        # through argtypes on every call; the row's address is set in place
        count = ctypes.c_ssize_t(samples)
        row = ctypes.c_void_p()
        # a memoryview yields the ids as Python ints one at a time, with no list of them all
        ids = memoryview(stream_ids.astype(np.uint64, copy=False).ravel())
        for address, stream_id in zip(range(base, base + row_bytes * len(ids), row_bytes), ids):
            stream_word.value = stream_id
            counter_low.value = 0
            buffer_pos.value = 4  # output buffer empty: the first draw runs the zero counter
            row.value = address
            fill(bitgen_ptr, count, row)
        return out


def johnson_variance(resistance: float, temperature: float, bandwidth: float) -> float:
    """Band-limited thermal-noise voltage variance 4*k*T*R*B of a resistor.

    Raises ValidationError when the variance is not a normal double (below
    sys.float_info.min, or infinite).
    """
    resistance, temperature, bandwidth = require_real(
        ("resistance", "temperature", "bandwidth"), resistance, temperature, bandwidth
    )
    # The product of the mantissas, scaled back by the exponents: no step leaves the double
    # range, and where no step of the plain product 4*k*T*R*B does, the two are equal.
    (m_t, e_t), (m_r, e_r), (m_b, e_b) = map(math.frexp, (temperature, resistance, bandwidth))
    try:
        variance = math.ldexp(4.0 * BOLTZMANN_J_PER_K * m_t * m_r * m_b, e_t + e_r + e_b)
    except OverflowError:
        variance = math.inf
    if not _NORMAL_MIN <= variance <= _DOUBLE_MAX:
        raise ValidationError(
            f"the thermal variance of {resistance!r} ohm at {temperature!r} K "
            f"over {bandwidth!r} Hz lies outside the range of a double"
        )
    return variance


def effective_temperature(resistance: float, variance: float, bandwidth: float) -> float:
    """Temperature at which physical Johnson noise would match ``variance``.

    Inverse of johnson_variance; emulated generator amplitudes typically map
    to enormous effective temperatures. Raises ValidationError when the
    temperature is not a normal double.
    """
    resistance, variance, bandwidth = require_real(
        ("resistance", "variance", "bandwidth"), resistance, variance, bandwidth
    )
    # scaled as in johnson_variance: equal to variance / (4*k*R*B) where no step of that leaves
    # the double range
    (m_v, e_v), (m_r, e_r), (m_b, e_b) = map(math.frexp, (variance, resistance, bandwidth))
    try:
        temperature = math.ldexp(m_v / (4.0 * BOLTZMANN_J_PER_K * m_r * m_b), e_v - e_r - e_b)
    except OverflowError:
        temperature = math.inf
    if not _NORMAL_MIN <= temperature <= _DOUBLE_MAX:
        raise ValidationError(
            f"the temperature matching {variance!r} V**2 on {resistance!r} ohm "
            f"over {bandwidth!r} Hz lies outside the range of a double"
        )
    return temperature
