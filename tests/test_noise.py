import ctypes
import re

import numpy as np
import pytest

from kljn import (
    BOLTZMANN_J_PER_K,
    LineState,
    ValidationError,
    effective_temperature,
    johnson_variance,
    noise,
)
from kljn.circuit import superpose, wire_moments
from kljn.errors import GeneratorLayoutError, KljnError
from kljn.noise import NormalStreams, StreamSeed, gaussian_block
from kljn.simulation import GEN_HB, GEN_LA


class TestStreamSeed:
    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True])
    def test_rejects_non_uint64(self, bad):
        with pytest.raises(ValidationError):
            StreamSeed(master_seed=bad, stream_id=0)
        with pytest.raises(ValidationError):
            StreamSeed(master_seed=0, stream_id=bad)

    def test_extreme_values_accepted(self):
        StreamSeed(master_seed=2**64 - 1, stream_id=2**64 - 1)


class TestGaussianBlock:
    """The stream properties the kernel relies on, checked on NormalStreams.fill,
    which it draws through; and gaussian_block's contract: its validation and its
    equality with a scaled row of fill."""

    def test_deterministic(self):
        first = NormalStreams(99).fill([12], np.empty((1, 4096)))
        second = NormalStreams(99).fill([12], np.empty((1, 4096)))
        assert np.array_equal(first, second)

    def test_distinct_streams_differ(self):
        a, b = NormalStreams(1).fill([0, 1], np.empty((2, 64)))
        c = NormalStreams(2).fill([0], np.empty((1, 64)))[0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empty_block(self):
        assert gaussian_block(0, 3.0, StreamSeed(0, 0)).size == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            gaussian_block(-1, 1.0, StreamSeed(0, 0))
        with pytest.raises(ValidationError):
            gaussian_block(10, -0.1, StreamSeed(0, 0))
        with pytest.raises(ValidationError):
            gaussian_block(10, float("nan"), StreamSeed(0, 0))
        with pytest.raises(ValidationError):
            gaussian_block(3, True, StreamSeed(0, 0))
        with pytest.raises(
            ValidationError, match="^variance must be positive and finite, got 0.0$"
        ):
            gaussian_block(10, 0.0, StreamSeed(0, 0))

    def test_scaled_rows_equal_gaussian_block(self):
        rows = NormalStreams(5).fill([4, 12], np.empty((2, 1000)))
        for row, stream_id in zip(rows, [4, 12]):
            want = gaussian_block(1000, 2.5, StreamSeed(5, stream_id))
            assert np.array_equal(np.sqrt(2.5) * row, want)

    def test_moments_at_one_million_samples(self):
        block = np.sqrt(2.0) * NormalStreams(2718).fill([5], np.empty((1, 1_000_000)))[0]
        # 99.99% chi-square band for the sample variance of 1e6 draws
        assert 1.98901 <= block.var(ddof=1) <= 2.01102
        # 4 sigma / sqrt(n) band for the sample mean
        assert abs(block.mean()) <= 4.0 * np.sqrt(2.0) / 1000.0

    def test_streams_are_uncorrelated(self):
        n = 100_000
        a, b = NormalStreams(314).fill([8, 9], np.empty((2, n)))
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(n)

    def test_sample_moments_match_circuit_prediction(self, asymmetric_quad, asymmetric_vars):
        n = 100_000
        alice, bob = NormalStreams(5150).fill([GEN_LA, GEN_HB], np.empty((2, n)))
        s_a, s_b = asymmetric_vars.connected(LineState.LH)
        alice *= np.sqrt(s_a)
        bob *= np.sqrt(s_b)
        r_a, r_b = asymmetric_quad.connected(LineState.LH)
        v_e, i_e = superpose(r_a, r_b, alice, bob, np.empty(n))
        current, voltage, cross = wire_moments(r_a, r_b, s_a, s_b)
        spread = np.sqrt(2.0 / n)
        assert v_e.var(ddof=1) == pytest.approx(voltage, abs=4.0 * voltage * spread)
        assert i_e.var(ddof=1) == pytest.approx(current, abs=4.0 * current * spread)
        cross_sd = np.sqrt((voltage * current + cross**2) / n)
        assert (v_e * i_e).mean() == pytest.approx(cross, abs=4.0 * cross_sd)


def fresh_stream(master_seed, stream_id, samples):
    return StreamSeed(master_seed, stream_id).generator().standard_normal(samples)


class TestStandardNormalStreams:
    """NormalStreams: many unit-variance streams of one master seed from one Philox."""

    @pytest.mark.parametrize("master_seed", [0, 77, 2**64 - 1, noise._PROBE_SEED])
    def test_each_row_is_its_own_stream(self, master_seed):
        ids = [[0, 2**64 - 1, 9], [9, 3, 2**63]]
        out = np.empty((2, 3, 257))
        rows = NormalStreams(master_seed).fill(np.array(ids, dtype=np.uint64), out)
        assert rows is out
        for row, stream_id in zip(rows.reshape(6, 257), sum(ids, [])):
            assert np.array_equal(row, fresh_stream(master_seed, stream_id, 257))

    def test_a_stream_left_mid_buffer_is_fully_reset(self):
        # 3 and 5 samples leave Philox part-way through its 4-word output buffer
        streams = NormalStreams(11)
        for stream_id, samples in ((6, 3), (6, 5), (7, 64), (6, 3)):
            got = streams.fill([stream_id], np.empty((1, samples)))[0]
            assert np.array_equal(got, fresh_stream(11, stream_id, samples))

    def test_interleaved_master_seeds_and_stream_ids(self):
        seeds = [0, 2**64 - 1, 31337]
        streams = [NormalStreams(seed) for seed in seeds]
        for stream_id in (0, 2**64 - 1, 5, 0, 2**63 + 1):
            for seed, keyed in zip(seeds, streams):
                got = keyed.fill([stream_id], np.empty((1, 33)))[0]
                assert np.array_equal(got, fresh_stream(seed, stream_id, 33))

    def test_two_live_objects_keep_their_own_keys(self):
        # both built before either draws, then drawn in turn, several rows a call:
        # each object re-keys only its own Philox, and its master seed stays put
        seeds = (5, 2**63 + 7)
        first, second = (NormalStreams(seed) for seed in seeds)
        for stream_ids in ([0, 1, 2], [2**64 - 1], [7, 7], [3, 2**62]):
            for seed, streams in zip(seeds, (first, second)):
                rows = streams.fill(np.array(stream_ids, np.uint64), np.empty((len(stream_ids), 13)))
                for row, stream_id in zip(rows, stream_ids):
                    assert np.array_equal(row, fresh_stream(seed, stream_id, 13))

    def test_each_call_draws_its_own_count_at_its_own_address(self):
        # one object, calls of changing row length and a buffer that starts one
        # row into a larger one: a count or address kept from an earlier call
        # would draw a wrong length or write elsewhere
        streams = NormalStreams(9)
        larger = np.zeros((3, 5))
        for stream_ids, out in (
            ([1, 2], np.empty((2, 33))),
            ([3, 4], larger[1:]),
            ([5], np.empty((1, 1000))),
        ):
            rows = streams.fill(stream_ids, out)
            for row, stream_id in zip(rows, stream_ids):
                assert np.array_equal(row, fresh_stream(9, stream_id, row.size))
        assert not larger[0].any()

    def test_layout_guard(self, monkeypatch):
        class MisplacedBufferPos(ctypes.Structure):
            # a numpy whose philox_state held buffer_pos 8 bytes later, inside
            # the output buffer: every write stays in the struct's own memory
            _fields_ = [
                ("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("_", ctypes.c_int * 2),
                ("buffer_pos", ctypes.c_int),
            ]

        assert MisplacedBufferPos.buffer_pos.offset != noise._PhiloxState.buffer_pos.offset
        assert ctypes.sizeof(MisplacedBufferPos) <= 64  # sizeof(philox_state)
        monkeypatch.setattr(noise, "_PhiloxState", MisplacedBufferPos)
        with pytest.raises(GeneratorLayoutError, match=re.escape(f"numpy {np.__version__}")):
            NormalStreams(0)
        assert issubclass(GeneratorLayoutError, KljnError)

    def test_the_guard_draws_through_fill(self):
        class KeepsTheBuffer(NormalStreams):
            # re-keys each stream as fill does, but leaves the output buffer
            # as the last stream left it
            def fill(self, stream_ids, out):
                for row, stream_id in zip(out, stream_ids):
                    self._stream_id.value = stream_id
                    self._counter_low.value = 0
                    self._fill(self._bitgen_ptr, row.size, row.ctypes.data)
                return out

        with pytest.raises(GeneratorLayoutError, match=re.escape(f"numpy {np.__version__}")):
            KeepsTheBuffer(0)

    def test_draw_guard(self, monkeypatch):
        # a numpy whose exported function wrote float32s would draw a wrong stream
        wrong = ctypes.PyDLL(np.random._generator.__file__).random_standard_normal_fill_f
        wrong.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
        wrong.restype = None
        monkeypatch.setattr(noise, "_standard_normal_fill", lambda: wrong)
        with pytest.raises(GeneratorLayoutError, match=re.escape(f"numpy {np.__version__}")):
            NormalStreams(0)

    def test_missing_draw_symbol(self, missing_draw_symbol):
        with pytest.raises(GeneratorLayoutError, match=re.escape(f"numpy {np.__version__}")):
            NormalStreams(0)

    def test_construction_leaves_counter_words_1_to_3_zero(self):
        # fill zeroes only word 0 of the counter; the probe streams advanced it
        streams = NormalStreams(2**64 - 1)
        assert streams._bit_generator.state["state"]["counter"][1:].tolist() == [0, 0, 0]
        got = streams.fill([8], np.empty((1, 9)))[0]
        assert np.array_equal(got, fresh_stream(2**64 - 1, 8, 9))

    def test_a_long_stream_then_each_buffer_position(self):
        # 4099 samples advance the counter's low word past 1024 blocks; streams of
        # 1 to 5 samples then start on every position of the 4-word output buffer
        streams = NormalStreams(42)
        for stream_id, samples in ((10, 4099), (11, 1), (12, 2), (13, 3), (14, 4), (15, 5)):
            got = streams.fill([stream_id], np.empty((1, samples)))[0]
            assert np.array_equal(got, fresh_stream(42, stream_id, samples))

    def test_empty(self):
        assert NormalStreams(0).fill([], np.empty((0, 8))).shape == (0, 8)
        assert NormalStreams(0).fill([1, 2], np.empty((2, 0))).shape == (2, 0)

    @pytest.mark.parametrize("master_seed", [-1, 2**64, True, 1.5])
    def test_rejects_a_bad_master_seed(self, master_seed):
        with pytest.raises(ValidationError):
            NormalStreams(master_seed)

    @pytest.mark.parametrize("stream_ids", [[-1], [1.5], [2**64], [0, -1, 2**64 - 1]])
    def test_rejects_bad_stream_ids(self, stream_ids):
        with pytest.raises(ValidationError):
            NormalStreams(0).fill(stream_ids, np.empty((len(stream_ids), 4)))

    def test_rejects_a_non_contiguous_slice(self):
        # the first k rows of each half of a (2, rows, n) buffer are not one
        # contiguous block; drawing through a reshape would fill a copy
        buffer = np.zeros((2, 5, 16))
        ids = np.arange(6, dtype=np.uint64).reshape(2, 3)
        with pytest.raises(ValidationError):
            NormalStreams(0).fill(ids, buffer[:, :3])
        assert not buffer.any()

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((2, 8), dtype=np.float32),
            np.empty((3, 8)),
            np.empty((16,)),
            np.empty((2, 1, 8)),
            np.empty((8, 2)).T,
            np.empty((2, 8)).tolist(),
        ],
        ids=["float32", "shape", "flat", "extra-axis", "fortran", "list"],
    )
    def test_rejects_a_bad_buffer(self, out):
        with pytest.raises(ValidationError):
            NormalStreams(0).fill([1, 2], out)

    def test_rejects_a_read_only_buffer(self):
        out = np.empty((2, 8))
        out.flags.writeable = False
        with pytest.raises(ValidationError):
            NormalStreams(0).fill([1, 2], out)


class TestJohnson:
    def test_reference_values(self):
        assert johnson_variance(1000.0, 300.0, 1.0) == pytest.approx(1.65678e-17, rel=1e-5)
        assert johnson_variance(1.0, 1.0, 1.0) == pytest.approx(5.522596e-23, rel=1e-12)
        # the product 4*k*T*R*B in that order, with the one Boltzmann constant
        assert johnson_variance(4700.0, 321.5, 25_000.0) == (
            4.0 * BOLTZMANN_J_PER_K * 321.5 * 4700.0 * 25_000.0
        )

    def test_linear_in_resistance(self):
        assert johnson_variance(2000.0, 300.0, 10_000.0) == 2.0 * johnson_variance(
            1000.0, 300.0, 10_000.0
        )

    def test_effective_temperature_round_trip(self):
        variance = johnson_variance(4700.0, 321.5, 25_000.0)
        assert effective_temperature(4700.0, variance, 25_000.0) == pytest.approx(
            321.5, rel=1e-12
        )

    def test_emulated_amplitudes_mean_huge_temperatures(self):
        got = effective_temperature(1000.0, 1.0, 1e6)
        assert got == pytest.approx(1.0 / (4.0 * BOLTZMANN_J_PER_K * 1000.0 * 1e6), rel=1e-15)
        assert got == pytest.approx(1.8107e13, rel=1e-4)

    def test_linear_in_variance(self):
        assert effective_temperature(500.0, 2.0, 1e5) == 2.0 * effective_temperature(
            500.0, 1.0, 1e5
        )

    def test_validation(self):
        for bad in (0.0, float("inf"), True):
            for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValidationError):
                    johnson_variance(*args)
                with pytest.raises(ValidationError):
                    effective_temperature(*args)

    def test_the_result_must_be_a_normal_double(self):
        # a product whose plain steps leave the range of a double, though the result does not
        assert johnson_variance(1e300, 1e300, 1e-300) == 4.0 * BOLTZMANN_J_PER_K * 1e300
        assert johnson_variance(1e-200, 1e-200, 1e200) == pytest.approx(
            4.0 * BOLTZMANN_J_PER_K * 1e-200, rel=1e-15
        )
        assert effective_temperature(1e-300, 1e-300, 1e10) == pytest.approx(
            1.0 / (4.0 * BOLTZMANN_J_PER_K * 1e10), rel=1e-15
        )
        with pytest.raises(ValidationError) as excinfo:
            johnson_variance(1e300, 1e300, 1e300)  # 4kTRB is about 6e877
        assert str(excinfo.value) == (
            "the thermal variance of 1e+300 ohm at 1e+300 K over 1e+300 Hz "
            "lies outside the range of a double"
        )
        with pytest.raises(ValidationError, match="outside the range of a double"):
            johnson_variance(1e-300, 1e-300, 1e-300)  # 4kTRB is about 6e-923
        with pytest.raises(ValidationError) as excinfo:
            effective_temperature(1e-300, 1.0, 1e-300)  # the temperature is about 2e622 K
        assert str(excinfo.value) == (
            "the temperature matching 1.0 V**2 on 1e-300 ohm over 1e-300 Hz "
            "lies outside the range of a double"
        )
