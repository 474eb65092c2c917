import contextlib
import dataclasses
import functools
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kljn
from kljn import (
    ExchangeResult,
    Indicator,
    LineState,
    NoiseVariances,
    SimConfig,
    StatePolicy,
    ValidationError,
    ber_report,
    estimate_ber,
    histogram,
    run_exchange,
    scatter_trace,
)
from kljn.circuit import ResistorQuad, wire_moments
from kljn.simulation import (
    GEN_HA,
    GEN_HB,
    GEN_LA,
    GEN_LB,
    MAX_BIN_COUNT,
    MAX_BITS,
    MAX_SAMPLES_PER_BIT,
    STATE_COIN_STREAM_ID,
    STREAM_STRIDE,
    _block_rows,
    _stream_ids,
    assign_states,
)


@pytest.fixture(scope="module")
def small_config(asymmetric_quad, asymmetric_vars):
    return SimConfig(
        quad=asymmetric_quad,
        variances=asymmetric_vars,
        samples_per_bit=64,
        num_bits=80,
        master_seed=424242,
    )


@pytest.fixture(scope="module")
def small_result(small_config):
    return run_exchange(small_config)


def synthetic_bits(lh_values, hl_values, indicator):
    """ExchangeResult whose chosen indicator takes the given values per state.

    The LH bits come first; the other two indicators are constant.
    """
    size = len(lh_values) + len(hl_values)
    columns = {"var_v": np.ones(size), "var_i": np.ones(size), "cross": np.zeros(size)}
    key = {
        Indicator.CURRENT_VARIANCE: "var_i",
        Indicator.VOLTAGE_VARIANCE: "var_v",
        Indicator.CROSS_CORRELATION: "cross",
    }[indicator]
    columns[key] = [*lh_values, *hl_values]
    return ExchangeResult([False] * len(lh_values) + [True] * len(hl_values), **columns)


class TestStreamLayout:
    """The ids the kernel draws each bit's connected sources from: bit * STREAM_STRIDE + slot."""

    def test_block_layout(self):
        assert (STREAM_STRIDE, GEN_LA, GEN_HA, GEN_LB, GEN_HB) == (8, 0, 1, 2, 3)
        ids = _stream_ids(np.array([0, 1, 3, 3]), np.array([False, False, False, True]))
        # row 0 is Alice's source, row 1 Bob's: (la, hb) in LH, (ha, lb) in HL
        assert ids.dtype == np.uint64
        assert ids.tolist() == [[0, 8, 24, 25], [3, 11, 27, 26]]

    def test_coin_stream_never_collides_with_noise_slots(self):
        # every bit of 100 in both states: all four generator slots
        bits = np.repeat(np.arange(100), 2)
        noise_ids = set(_stream_ids(bits, np.tile([False, True], 100)).ravel().tolist())
        assert len(noise_ids) == 400
        assert STATE_COIN_STREAM_ID not in noise_ids


class TestSimConfig:
    def test_rejects_bad_fields(self, asymmetric_quad, asymmetric_vars):
        good = dict(quad=asymmetric_quad, variances=asymmetric_vars)
        with pytest.raises(ValidationError):
            SimConfig(**good, samples_per_bit=1)
        with pytest.raises(ValidationError):
            SimConfig(**good, samples_per_bit=MAX_SAMPLES_PER_BIT + 1)
        with pytest.raises(ValidationError):
            SimConfig(**good, num_bits=0)
        with pytest.raises(ValidationError):
            SimConfig(**good, num_bits=2**61 + 1)  # bit 2**61 would need stream id 2**64
        with pytest.raises(ValidationError):
            SimConfig(**good, master_seed=-1)
        with pytest.raises(ValidationError):
            SimConfig(**good, master_seed=2**64)
        for field in ("samples_per_bit", "num_bits"):
            with pytest.raises(ValidationError):
                SimConfig(**good, **{field: True})
        with pytest.raises(ValidationError):
            SimConfig(**good, state_policy="alternate")
        with pytest.raises(ValidationError):
            SimConfig(quad=(1000, 10000, 5000, 9000), variances=asymmetric_vars)
        with pytest.raises(ValidationError):
            SimConfig(quad=asymmetric_quad, variances=dataclasses.astuple(asymmetric_vars))

    def test_defaults(self, asymmetric_quad, asymmetric_vars):
        config = SimConfig(quad=asymmetric_quad, variances=asymmetric_vars)
        assert config.samples_per_bit == 1000
        assert config.num_bits == 1_000_000
        assert config.state_policy is StatePolicy.ALTERNATE


class TestOneBitWindow:
    """One bit's window regenerated in isolation with scatter_trace."""

    def test_bit_index_bounds(self, small_config):
        with pytest.raises(ValidationError):
            scatter_trace(small_config, [(LineState.LH, -1)])
        with pytest.raises(ValidationError):
            scatter_trace(small_config, [(LineState.LH, small_config.num_bits)])
        for bad in (1.5, True):
            with pytest.raises(ValidationError):
                scatter_trace(small_config, [(LineState.LH, bad)])

    def test_stream_ids_must_fit_64_bits(self, asymmetric_quad, asymmetric_vars):
        # bit b owns stream ids 8b..8b+7, so 2**61 - 1 is the last bit with a key
        config = SimConfig(
            quad=asymmetric_quad, variances=asymmetric_vars, samples_per_bit=4, num_bits=2**61
        )
        assert scatter_trace(config, [(LineState.HL, 2**61 - 1)])[0].shape == (4, 2)
        with pytest.raises(ValidationError):
            scatter_trace(config, [(LineState.LH, 2**61)])


class TestRunExchange:
    def test_alternate_policy_states(self, asymmetric_quad, asymmetric_vars):
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=8,
            num_bits=4,
            master_seed=3,
        )
        result = run_exchange(config)
        assert result.hl_mask.tolist() == [False, True, False, True]

    def test_alternate_mask_costs_one_byte_per_bit(self, asymmetric_quad, asymmetric_vars):
        config = SimConfig(quad=asymmetric_quad, variances=asymmetric_vars)
        assert config.num_bits == 1_000_000
        tracemalloc.start()
        try:
            mask = assign_states(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mask, (np.arange(config.num_bits) % 2).astype(bool))
        assert peak < 2 * 1024 * 1024

    @pytest.fixture
    def children(self, monkeypatch):
        """Every multiprocessing.Process that run_exchange makes, in order."""
        made = []
        real_process = multiprocessing.Process

        def process(*args, **kwargs):
            made.append(real_process(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(multiprocessing, "Process", process)
        return made

    @pytest.mark.parametrize(
        "num_bits, policy, cpus, threads, started",
        [
            pytest.param(num_bits, policy, 4, 0, 3, id=f"{num_bits}-{policy}")
            for num_bits in (8, 11, 4001)
            for policy in StatePolicy
        ]
        + [pytest.param(80, StatePolicy.ALTERNATE, 2, 5000, 1, id="5000-threads-on-2-cpus")],
    )
    def test_uneven_shares_equal_serial(
        self,
        monkeypatch,
        children,
        asymmetric_quad,
        asymmetric_vars,
        num_bits,
        policy,
        cpus,
        threads,
        started,
    ):
        # 4 workers give 3 children, and 8 bits is the smallest run they split;
        # 5000 threads asked for on 2 CPUs give 2 workers, so one child
        monkeypatch.setattr("kljn.simulation.os.cpu_count", lambda: cpus)
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=16,
            num_bits=num_bits,
            master_seed=31,
            state_policy=policy,
        )
        parallel = run_exchange(config, threads=threads)
        assert [child.exitcode for child in children] == [0] * started
        assert multiprocessing.active_children() == []
        serial = run_exchange(config, threads=1)
        assert np.array_equal(parallel.hl_mask, serial.hl_mask)
        for indicator in Indicator:
            assert np.array_equal(
                parallel.indicator_values(indicator), serial.indicator_values(indicator)
            )

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_every_start_method_gives_the_serial_bytes(
        self, monkeypatch, asymmetric_quad, asymmetric_vars, method
    ):
        # 5000-bit shares make 40 kB rows; past 16 KiB, send_bytes sends a row
        # apart from its length header. A 10001-bit share sends each row in two
        # pieces, of _PIECE and 1809 values
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context(method).Process)
        monkeypatch.setattr("kljn.simulation.os.cpu_count", lambda: 2)
        for num_bits in (10_001, 20_001):
            config = SimConfig(
                quad=asymmetric_quad,
                variances=asymmetric_vars,
                samples_per_bit=16,
                num_bits=num_bits,
                master_seed=7,
                state_policy=StatePolicy.RANDOM,
            )
            parallel = run_exchange(config, threads=2)
            assert multiprocessing.active_children() == []
            serial = run_exchange(config, threads=1)
            for name in ("hl_mask", "var_v", "var_i", "cross"):
                assert getattr(parallel, name).tobytes() == getattr(serial, name).tobytes()

    def test_one_worker_leaves_out_multiprocessing(self):
        # only a run that starts a child imports multiprocessing
        code = (
            "import sys\n"
            "from kljn import ResistorQuad, SimConfig, run_exchange, solve_variances\n"
            "quad = ResistorQuad(r_la=1000.0, r_ha=10_000.0, r_lb=5000.0, r_hb=9000.0)\n"
            "run_exchange(SimConfig(quad, solve_variances(quad, 1.0), 16, 64), threads=1)\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(kljn.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_eof_error_from_the_child_keeps_its_type(self, monkeypatch, small_config):
        # the child's own EOFError is raised as sent, not taken for the end of its pipe
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        monkeypatch.setattr("kljn.simulation.os.cpu_count", lambda: 2)
        parent = os.getpid()
        real_chunk = kljn.simulation._simulate_chunk

        def chunk(config, start, hl_flags, columns):
            if os.getpid() != parent:
                raise EOFError("from the child")
            real_chunk(config, start, hl_flags, columns)

        monkeypatch.setattr(kljn.simulation, "_simulate_chunk", chunk)
        with pytest.raises(EOFError, match="^from the child$"):
            run_exchange(small_config, threads=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat")
    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_killed_parent_leaves_no_child(self, tmp_path, workers):
        # the parent prints its children's pids and kills itself before it reads a
        # row; each child's 40k or 20k bits are rows far beyond a 64 KiB pipe buffer
        code = (
            "import multiprocessing, os, signal\n"
            "import kljn.simulation\n"
            "from kljn import ResistorQuad, SimConfig, run_exchange, solve_variances\n"
            f"os.cpu_count = lambda: {workers}\n"
            "parent, real_chunk = os.getpid(), kljn.simulation._simulate_chunk\n"
            "def chunk(*args):\n"
            "    if os.getpid() == parent:\n"
            "        print(*(c.pid for c in multiprocessing.active_children()), flush=True)\n"
            "        os.kill(parent, signal.SIGKILL)\n"
            "    real_chunk(*args)\n"
            "kljn.simulation._simulate_chunk = chunk\n"
            "quad = ResistorQuad(1000.0, 10_000.0, 5000.0, 9000.0)\n"
            "run_exchange(SimConfig(quad, solve_variances(quad, 1.0), 2, 80_000), threads=0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(kljn.__file__).parents[1]))
        # files, not pipes: a child left blocked would hold a pipe open, and the run with it
        out, err = tmp_path / "pids", tmp_path / "stderr"
        with open(out, "x") as handle, open(err, "x") as err_handle:
            done = subprocess.run(
                [sys.executable, "-c", code], stdout=handle, stderr=err_handle, env=env
            )
        pids = [int(pid) for pid in out.read_text().split()]

        def alive(pid):
            # a child reparented to an init that does not reap it stays a zombie
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        try:
            assert done.returncode == -signal.SIGKILL and len(pids) == workers - 1
            deadline = time.monotonic() + 10.0
            while any(map(alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(alive, pids))
            # each orphan's failed send ends it quietly, with no traceback
            assert "Traceback" not in err.read_text()
            assert "BrokenPipeError" not in err.read_text()
        finally:
            for pid in filter(alive, pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_random_policy_is_roughly_balanced(self, asymmetric_quad, asymmetric_vars):
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=2,
            num_bits=100_000,
            master_seed=11,
            state_policy=StatePolicy.RANDOM,
        )
        hl_mask = assign_states(config)
        lh_count = int((~hl_mask).sum())
        assert abs(lh_count - 50_000) <= 4.0 * np.sqrt(100_000 / 4.0)

    def test_rejects_negative_threads(self, small_config):
        with pytest.raises(ValidationError):
            run_exchange(small_config, threads=-1)

    @pytest.mark.parametrize("threads", [1.5, True, "2", None])
    def test_rejects_non_integer_threads(self, small_config, threads):
        with pytest.raises(ValidationError):
            run_exchange(small_config, threads=threads)


class TestExchangeResult:
    def test_unequal_lengths_rejected(self):
        columns = [[False, True], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]
        for short in range(4):
            bad = [column[:1] if k == short else column for k, column in enumerate(columns)]
            with pytest.raises(ValidationError):
                ExchangeResult(*bad)

    @pytest.mark.parametrize("shape", [(2, 2), ()], ids=["2-D", "0-d"])
    def test_columns_that_are_not_1d_rejected(self, shape):
        with pytest.raises(ValidationError, match="1-D"):
            ExchangeResult(np.zeros(shape, bool), np.ones(shape), np.ones(shape), np.ones(shape))

    def test_columns_are_read_only(self):
        var_v = np.array([1.0, 2.0])
        result = ExchangeResult([False, True], var_v, [3.0, 4.0], [0.5, -0.5])
        for column in (result.hl_mask, result.var_v, result.var_i, result.cross):
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.var_v = var_v
        # the caller's own array stays writable
        var_v[0] = 9.0
        assert result.var_v.tolist() == [9.0, 2.0]

    def test_columns_take_their_dtypes(self):
        result = ExchangeResult([0, 1], [1, 2], [3, 4], [5, 6])
        assert result.hl_mask.dtype == np.bool_
        for column in (result.var_v, result.var_i, result.cross):
            assert column.dtype == np.float64

    def test_accessors_return_the_matching_columns(self):
        result = ExchangeResult(
            [False, True, True], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]
        )
        assert result.indicator_values(Indicator.VOLTAGE_VARIANCE) is result.var_v
        assert result.indicator_values(Indicator.CURRENT_VARIANCE) is result.var_i
        assert result.indicator_values(Indicator.CROSS_CORRELATION) is result.cross
        assert result.state_mask(LineState.HL) is result.hl_mask
        assert result.state_mask(LineState.LH).tolist() == [True, False, False]


class TestEstimateBer:
    @pytest.mark.parametrize("indicator", list(Indicator))
    def test_perfectly_separated(self, indicator):
        bits = synthetic_bits([1.0, 2.0], [3.0, 4.0], indicator)
        entry = estimate_ber(bits, indicator)
        assert entry.threshold == 2.5
        assert entry.ber == 0.0
        assert entry.leak == 0.5
        assert (entry.bits_lh, entry.bits_hl) == (2, 2)

    def test_inverted_separation(self):
        bits = synthetic_bits([3.0, 4.0], [1.0, 2.0], Indicator.CURRENT_VARIANCE)
        entry = estimate_ber(bits, Indicator.CURRENT_VARIANCE)
        assert entry.ber == 1.0
        assert entry.leak == 0.5

    def test_single_state_is_degenerate(self):
        bits = synthetic_bits([1.0, 2.0], [], Indicator.CURRENT_VARIANCE)
        with pytest.raises(
            ValidationError, match="^both line states must be present, got 2 LH and 0 HL bits$"
        ):
            estimate_ber(bits, Indicator.CURRENT_VARIANCE)
        with pytest.raises(
            ValidationError, match="^both line states must be present, got 0 LH and 0 HL bits$"
        ):
            estimate_ber(ExchangeResult([], [], [], []), Indicator.CURRENT_VARIANCE)

    def test_indicators_are_independent_columns(self):
        # the chosen indicator separates perfectly, the others see constants
        bits = synthetic_bits([1.0, 2.0], [3.0, 4.0], Indicator.VOLTAGE_VARIANCE)
        assert estimate_ber(bits, Indicator.VOLTAGE_VARIANCE).ber == 0.0
        assert estimate_ber(bits, Indicator.CURRENT_VARIANCE).ber == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, small_result, bad):
        # the result that estimate_ber and histogram would read cannot be built
        message = "^cross_correlation values must all be finite$"
        with pytest.raises(ValidationError, match=message):
            synthetic_bits([1.0, bad], [3.0, 4.0], Indicator.CROSS_CORRELATION)
        n = small_result.hl_mask.size
        cross = np.where(np.arange(n) == 7, bad, 0.0)
        hl_mask = small_result.state_mask(LineState.HL)
        with pytest.raises(ValidationError, match=message):
            ExchangeResult(hl_mask, np.ones(n), np.ones(n), cross)
        # the columns are checked in Indicator order
        with pytest.raises(ValidationError, match="^current_variance values"):
            ExchangeResult([False], [bad], [bad], [bad])

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(23)
        lh = rng.normal(10.0, 1.0, 101).tolist()
        hl = rng.normal(10.4, 1.0, 101).tolist()
        base = estimate_ber(
            synthetic_bits(lh, hl, Indicator.CURRENT_VARIANCE), Indicator.CURRENT_VARIANCE
        )
        for transform in (np.exp, lambda x: 3.0 * np.asarray(x) - 7.0, np.cbrt):
            mapped = estimate_ber(
                synthetic_bits(
                    transform(np.array(lh)).tolist(),
                    transform(np.array(hl)).tolist(),
                    Indicator.CURRENT_VARIANCE,
                ),
                Indicator.CURRENT_VARIANCE,
            )
            assert mapped.ber == base.ber


class TestHistogram:
    def test_two_values_two_bins(self):
        bits = synthetic_bits([1.0], [3.0], Indicator.CURRENT_VARIANCE)
        hist = histogram(bits, Indicator.CURRENT_VARIANCE, 2)
        assert hist.edges.tolist() == [1.0, 2.0, 3.0]
        assert (hist.counts_lh + hist.counts_hl).tolist() == [1, 1]

    def test_identical_values_occupy_one_bin(self):
        bits = synthetic_bits([2.0, 2.0], [2.0], Indicator.VOLTAGE_VARIANCE)
        hist = histogram(bits, Indicator.VOLTAGE_VARIANCE, 5)
        assert (hist.counts_lh + hist.counts_hl).sum() == 3
        assert ((hist.counts_lh + hist.counts_hl) > 0).sum() == 1

    def test_counts_cover_every_bit(self, small_result):
        for indicator in Indicator:
            hist = histogram(small_result, indicator, 13)
            assert hist.counts_lh.sum() + hist.counts_hl.sum() == small_result.hl_mask.size
            assert hist.edges.size == 14

    def test_empty_is_degenerate(self):
        with pytest.raises(ValidationError, match="^cannot histogram an empty exchange result$"):
            histogram(ExchangeResult([], [], [], []), Indicator.CURRENT_VARIANCE, 4)

    @pytest.mark.parametrize("bins", [1, 2, 200, 10_000])
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(5).standard_normal(1000) ** 2,
            np.full(10, 3.7),
            np.random.default_rng(6).random(1000) * 1e-300,
            np.random.default_rng(7).random(1000) * 1e300,
        ],
        ids=["random", "constant", "1e-300-scale", "1e300-scale"],
    )
    def test_edges_span_min_to_max(self, values, bins):
        # the rule numpy's histogram_bin_edges applies: min..max evenly,
        # widened by 0.5 on each side for a constant column
        low, high = float(values.min()), float(values.max())
        if low == high:
            low, high = low - 0.5, high + 0.5
        expected = np.linspace(low, high, bins + 1)
        result = ExchangeResult(np.arange(values.size) % 2 == 1, values, values, values)
        hist = histogram(result, Indicator.CURRENT_VARIANCE, bins)
        assert hist.edges.tobytes() == expected.tobytes()

    def test_bad_bin_count(self, small_result):
        for bad in (0, True, 1.5, MAX_BIN_COUNT + 1):
            with pytest.raises(ValidationError):
                histogram(small_result, Indicator.CURRENT_VARIANCE, bad)

    def test_largest_bin_count_runs_out_of_memory(self, small_result):
        # numpy can size its edges, and fails to allocate them
        with pytest.raises(MemoryError):
            histogram(small_result, Indicator.CURRENT_VARIANCE, MAX_BIN_COUNT)


class TestEnumArguments:
    """An enum argument must be a member; its value string is not one and raises."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda config, result: scatter_trace(config, [("HL", 1)]), id="scatter_trace"
            ),
            pytest.param(lambda config, result: result.state_mask("HL"), id="state_mask"),
            pytest.param(
                lambda config, result: result.indicator_values("voltage_variance"),
                id="indicator_values",
            ),
            pytest.param(
                lambda config, result: estimate_ber(result, "current_variance"), id="estimate_ber"
            ),
            pytest.param(
                lambda config, result: histogram(result, "voltage_variance", 3), id="histogram"
            ),
            pytest.param(lambda config, result: config.quad.connected("LH"), id="quad.connected"),
            pytest.param(
                lambda config, result: config.variances.connected("LH"), id="variances.connected"
            ),
        ],
    )
    def test_value_string_is_rejected(self, small_config, small_result, call):
        with pytest.raises(ValidationError):
            call(small_config, small_result)


class TestScatterTrace:
    def test_correlation_sign_and_magnitude(self, asymmetric_quad, asymmetric_vars):
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=1000,
            num_bits=1,
            master_seed=2025,
        )
        pairs = scatter_trace(config, [(LineState.LH, 0)])[0]
        current, voltage, cross = wire_moments(
            *asymmetric_quad.connected(LineState.LH), *asymmetric_vars.connected(LineState.LH)
        )
        rho = cross / np.sqrt(voltage * current)
        sample_rho = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert sample_rho < 0.0
        assert sample_rho == pytest.approx(rho, abs=4.0 / np.sqrt(1000.0))

    def test_traces_are_the_one_bit_traces_in_order(self, small_config):
        windows = [(LineState.HL, 3), (LineState.LH, 0), (LineState.HL, 79), (LineState.LH, 3)]
        traces = scatter_trace(small_config, windows)
        assert traces.shape == (4, small_config.samples_per_bit, 2)
        for trace, (state, bit) in zip(traces, windows):
            assert trace.tobytes() == scatter_trace(small_config, [(state, bit)])[0].tobytes()

    def test_traces_check_every_window_first(self, small_config):
        with pytest.raises(ValidationError, match="bit_index"):
            scatter_trace(small_config, [(LineState.LH, 0), (LineState.HL, 80)])
        with pytest.raises(ValidationError, match="state"):
            scatter_trace(small_config, [(LineState.LH, 0), ("HL", 1)])


def reference_windows(config, hl_mask):
    """Every bit's (v_e, i_e) from plain numpy: one fresh Philox per stream.

    The README layout keys a bit's slot (la=0, ha=1, lb=2, hb=3) as
    [master_seed, bit * 8 + slot]; the wire follows the loop equations.
    """
    q, v, n = config.quad, config.variances, config.samples_per_bit
    for bit, is_hl in enumerate(hl_mask):
        if is_hl:
            (slot_a, r_a, s_a), (slot_b, r_b, s_b) = (1, q.r_ha, v.v_ha_sq), (2, q.r_lb, v.v_lb_sq)
        else:
            (slot_a, r_a, s_a), (slot_b, r_b, s_b) = (0, q.r_la, v.v_la_sq), (3, q.r_hb, v.v_hb_sq)
        v_a, v_b = (
            np.random.Generator(
                np.random.Philox(key=np.array([config.master_seed, bit * 8 + slot], np.uint64))
            ).normal(0.0, np.sqrt(variance), n)
            for slot, variance in ((slot_a, s_a), (slot_b, s_b))
        )
        yield (r_b * v_a + r_a * v_b) / (r_a + r_b), (v_b - v_a) / (r_a + r_b)


@functools.lru_cache(maxsize=None)
def reference_run(config):
    """(hl_mask, [var_v, var_i, cross] rows, windows) of the per-bit reference."""
    if config.state_policy is StatePolicy.ALTERNATE:
        hl_mask = np.arange(config.num_bits) % 2 == 1
    else:
        coin = np.random.Philox(key=np.array([config.master_seed, 4], dtype=np.uint64))
        hl_mask = np.random.Generator(coin).random(config.num_bits) >= 0.5
    windows = list(reference_windows(config, hl_mask))
    columns = np.array(
        [[np.var(v_e, ddof=1), np.var(i_e, ddof=1), np.mean(v_e * i_e)] for v_e, i_e in windows]
    ).T
    return hl_mask, columns, windows


KERNEL_CASES = [
    pytest.param(policy, samples, seed, id=f"{policy.value}-n{samples}")
    for policy in StatePolicy
    for samples, seed in ((2, 2**64 - 1), (32, 5), (1000, 0))
]


# runs shorter than one kernel block; the 1-bit alternate run has no HL bit
SHORT_RUN_CASES = [
    pytest.param(policy, 32, 5, bits, id=f"{policy.value}-n32-bits{bits}")
    for policy in StatePolicy
    for bits in (1, 2, 3)
]


def kernel_config(quad, variances, policy, samples, seed, bits=None):
    # by default a few bits past the first kernel block, so the run straddles a block boundary
    return SimConfig(
        quad=quad,
        variances=variances,
        samples_per_bit=samples,
        num_bits=bits or _block_rows(samples) + 3,
        master_seed=seed,
        state_policy=policy,
    )


class TestKernelMatchesPerBitReference:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "policy, samples, seed, bits",
        [pytest.param(*case.values, None, id=case.id) for case in KERNEL_CASES] + SHORT_RUN_CASES,
    )
    def test_columns(self, asymmetric_quad, asymmetric_vars, policy, samples, seed, bits, threads):
        config = kernel_config(asymmetric_quad, asymmetric_vars, policy, samples, seed, bits)
        hl_mask, (var_v, var_i, cross), _ = reference_run(config)
        result = run_exchange(config, threads=threads)
        assert np.array_equal(result.state_mask(LineState.HL), hl_mask)
        assert np.array_equal(result.indicator_values(Indicator.VOLTAGE_VARIANCE), var_v)
        assert np.array_equal(result.indicator_values(Indicator.CURRENT_VARIANCE), var_i)
        assert np.array_equal(result.indicator_values(Indicator.CROSS_CORRELATION), cross)

    @pytest.mark.parametrize("policy, samples, seed", KERNEL_CASES)
    def test_single_bit_calls(self, asymmetric_quad, asymmetric_vars, policy, samples, seed):
        config = kernel_config(asymmetric_quad, asymmetric_vars, policy, samples, seed)
        hl_mask, columns, windows = reference_run(config)
        result = run_exchange(config)
        last = config.num_bits - 1
        for bit in (0, 1, _block_rows(samples), last):
            state = LineState.HL if hl_mask[bit] else LineState.LH
            v_e, i_e = windows[bit]
            trace = scatter_trace(config, [(state, bit)])[0]
            assert np.array_equal(trace, np.column_stack([v_e, i_e]))
            assert result.hl_mask[bit] == hl_mask[bit]
            got = [result.var_v[bit], result.var_i[bit], result.cross[bit]]
            assert got == columns[:, bit].tolist()


class TestKernelScaleFreedom:
    # resistances x 2**j and variances x 4**m scale v_e by 2**m and i_e by 2**(m - j)
    # exactly, so every column scales by a power of two and every verdict stays
    @pytest.mark.parametrize("j, m", [(10, -40), (60, -33), (-30, 20)])
    def test_columns_scale_exactly(self, asymmetric_quad, asymmetric_vars, j, m):
        unit = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=32,
            num_bits=20_000,
            master_seed=11,
            state_policy=StatePolicy.RANDOM,
        )
        quad = ResistorQuad(*(2.0**j * r for r in dataclasses.astuple(asymmetric_quad)))
        variances = NoiseVariances(*(4.0**m * v for v in dataclasses.astuple(asymmetric_vars)))
        scaled = dataclasses.replace(unit, quad=quad, variances=variances)
        want, got = run_exchange(unit), run_exchange(scaled)
        assert np.array_equal(got.hl_mask, want.hl_mask)
        assert np.array_equal(got.var_v, 4.0**m * want.var_v)
        assert np.array_equal(got.var_i, 4.0**m * 2.0 ** (-2 * j) * want.var_i)
        assert np.array_equal(got.cross, 4.0**m * 2.0**-j * want.cross)
        for entry, unit_entry in zip(ber_report(got), ber_report(want)):
            assert (entry.ber, entry.leak) == (unit_entry.ber, unit_entry.leak)
            assert (entry.bits_lh, entry.bits_hl) == (unit_entry.bits_lh, unit_entry.bits_hl)


# sha256 of the column bytes at master seed 20151, recorded before the kernel
# moved into per-chunk buffers; any change to one bit of the kernel shows here
COLUMN_DIGESTS = {
    ("alternate", 1000): (
        "78f446682476c9dd8da3d514e16c642f86006723e33f7d7b1696b109c3100116",
        "52ff76abed550bafe8f9ba7823c10e480d301377214a8d992249c7e4c7b0cd85",
        "6d6e4b1623d0aba13aa043b30a28efad07d59c1ebb86d1ac30555dd33ce1808e",
    ),
    ("random", 1000): (
        "4544e0ee5f47a10d88b87bc83b6903244b87b7180e2a69dedd2ef18b7848d344",
        "e6f0b3aa24e1a75b01a0ce8c50004ae4c15a61c5cf5352a72c15e9e8289936b6",
        "fb7a310ff898b3882fa9e7d4c6399a83bbd0818c391a4e387d60eba6e554f76a",
    ),
    ("alternate", 32): (
        "ffddb503c03c4ed23d826e3f54a57c42e586c1c398c8e71059bd5a4d133062ab",
        "8bdb500ab02b525f834a9628b3efada47ea4ac8ff6ccb3e7b7122ebbdcc0df8d",
        "0514e36fb582df48ec88be46d23b840123da58196cf8821a7536d9ed9b9588f2",
    ),
    ("random", 32): (
        "89964ffc802d5426fdcbb42a6e2f85f13cb1e9174723d1b27f4b5b2ec2b9dc1a",
        "372932ddfb185e12426f92135fd0533e9c6f103db32ab89ec0498f8011bcc5dc",
        "63d288544fa1dd2ee5f3901add6f08ffa7738b287b4ea6068f5cbef645500ae5",
    ),
}

# the bit counts the digests were recorded at: two full 16384-sample blocks and a
# short third one; the bytes do not depend on the block shape
DIGEST_BITS = {1000: 37, 32: 1029}

# sha256 of the last bit's scatter_trace in LH, then in HL
SCATTER_DIGESTS = {
    1000: "31282ff58aa1b65deedae34996b16f694a04a4ffe4f52ac3beb32311a70c0a92",
    32: "78767bcbe60ea376a2baf5c968ae151fd6046476ccd51cdbf5c275dde7ce0106",
}


class TestKernelDigests:
    @pytest.mark.parametrize("policy, samples", list(COLUMN_DIGESTS))
    def test_bytes_are_pinned(self, asymmetric_quad, asymmetric_vars, policy, samples):
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=samples,
            num_bits=DIGEST_BITS[samples],
            master_seed=20151,
            state_policy=StatePolicy(policy),
        )
        result = run_exchange(config)
        got = tuple(
            hashlib.sha256(column.tobytes()).hexdigest()
            for column in (result.var_v, result.var_i, result.cross)
        )
        assert got == COLUMN_DIGESTS[policy, samples]
        last = config.num_bits - 1
        traces = b"".join(
            scatter_trace(config, [(state, last)])[0].tobytes() for state in LineState
        )
        assert hashlib.sha256(traces).hexdigest() == SCATTER_DIGESTS[samples]


# (samples per source array, bits) of a kernel block: the shape before blocks held
# at most 512 bits, and a tiny one that splits a run into many short blocks
BLOCK_SHAPES = ((16_384, MAX_BITS), (2048, 3))


class TestBlockShape:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("samples", [1000, 32])
    @pytest.mark.parametrize("policy", list(StatePolicy))
    def test_columns_do_not_depend_on_it(
        self, monkeypatch, asymmetric_quad, asymmetric_vars, policy, samples, threads
    ):
        # the children are forked, so they run the patched shape too
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        monkeypatch.setattr("kljn.simulation.os.cpu_count", lambda: 2)
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=samples,
            num_bits=2 * _block_rows(samples) + 7,
            master_seed=11,
            state_policy=policy,
        )
        default = run_exchange(config, threads=threads)
        for block_samples, block_bits in BLOCK_SHAPES:
            monkeypatch.setattr("kljn.simulation._BLOCK_SAMPLES", block_samples)
            monkeypatch.setattr("kljn.simulation._BLOCK_BITS", block_bits)
            result = run_exchange(config, threads=threads)
            for name in ("hl_mask", "var_v", "var_i", "cross"):
                assert getattr(result, name).tobytes() == getattr(default, name).tobytes()


# one ufunc iterator buffer (getbufsize() float64 items), which numpy may
# allocate for an operand it cannot stride through, plus 32 KiB for the
# per-block stream ids, row orders and Python objects
ALLOCATION_MARGIN = np.getbufsize() * 8 + 32 * 1024


def peak_beyond_columns(config, threads):
    """This process's tracemalloc peak during run_exchange, less the result's columns."""
    run_exchange(config, threads=threads)  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        result = run_exchange(config, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = (result.hl_mask, result.var_v, result.var_i, result.cross)
    return peak - sum(column.nbytes for column in columns)


class TestKernelAllocatesOncePerChunk:
    @pytest.mark.parametrize("samples", [1000, 32, 2])
    def test_peak_is_bounded_and_flat(self, asymmetric_quad, asymmetric_vars, samples):
        peaks = []
        for blocks in (4, 40):
            config = SimConfig(
                quad=asymmetric_quad,
                variances=asymmetric_vars,
                samples_per_bit=samples,
                num_bits=blocks * _block_rows(samples),
                master_seed=3,
            )
            peaks.append(peak_beyond_columns(config, threads=1))
        # the draw buffer (two sources) and one scratch array, each one block
        assert max(peaks) < 3 * _block_rows(samples) * samples * 8 + ALLOCATION_MARGIN
        assert peaks[1] <= peaks[0] + 1024

    def test_two_workers_hold_one_copy(self, monkeypatch, asymmetric_quad, asymmetric_vars):
        # the child's rows are read straight into the run's columns, one piece at
        # a time, so this process holds at most one more piece, the one it is reading.
        # A received row shows in the peak only if it outgrows the kernel's block
        # buffers, freed before it arrives: at 2 samples per bit those are about
        # 60 kB, under one 160 kB row of the child's 20000 bits, and small pieces
        # keep the bound below that row. The child is forked, so it sends the
        # patched pieces too
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        monkeypatch.setattr("kljn.simulation.os.cpu_count", lambda: 2)
        monkeypatch.setattr("kljn.simulation._PIECE", 512)
        config = SimConfig(
            quad=asymmetric_quad,
            variances=asymmetric_vars,
            samples_per_bit=2,
            num_bits=40_000,
            master_seed=3,
        )
        one_worker = peak_beyond_columns(config, threads=1)
        two_workers = peak_beyond_columns(config, threads=2)
        assert two_workers < one_worker + kljn.simulation._PIECE * 8 + ALLOCATION_MARGIN
