import csv
import errno
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kljn
from kljn.cli import build_parser, main

ASYMMETRIC = {"r_la": 1000.0, "r_ha": 10_000.0, "r_lb": 5000.0, "r_hb": 9000.0}
SYMMETRIC = {"r_la": 1000.0, "r_ha": 9000.0, "r_lb": 1000.0, "r_hb": 9000.0}


def write_config(tmp_path, name="config.json", **overrides):
    config = {"resistors_ohm": ASYMMETRIC, "v_la_variance_v2": 1.0}
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def run_module(*args):
    """``python -m kljn *args`` in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(kljn.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "kljn", *args], capture_output=True, text=True, env=env
    )


def assert_one_line_error(done):
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr


class TestSolveCommand:
    def test_reference_output(self, tmp_path, capsys):
        assert main(["solve", write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 4
        by_name = {line.split(",")[0]: line for line in lines}
        assert set(by_name) == {"v_la", "v_ha", "v_lb", "v_hb"}
        assert "1.40741" in by_name["v_hb"] and "1.186" in by_name["v_hb"]
        assert "4.75" in by_name["v_ha"] and "2.179" in by_name["v_ha"]
        assert "0.66667" in by_name["v_lb"] and "0.816" in by_name["v_lb"]

    def test_symmetric_rms_ratio(self, tmp_path, capsys):
        path = write_config(tmp_path, resistors_ohm=SYMMETRIC)
        assert main(["solve", path]) == 0
        rms = {}
        for line in capsys.readouterr().out.strip().splitlines():
            name, _, rms_text = line.split(",")
            rms[name] = float(rms_text)
        assert rms["v_ha"] / rms["v_la"] == pytest.approx(3.0, abs=1e-3)
        assert rms["v_hb"] / rms["v_lb"] == pytest.approx(3.0, abs=1e-3)

    def test_infeasible_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            resistors_ohm={"r_la": 5000.0, "r_ha": 1000.0, "r_lb": 1000.0, "r_hb": 2000.0},
        )
        assert main(["solve", path]) == 2
        assert capsys.readouterr().err == (
            "error: infeasible resistor configuration: v_hb_sq = -0.125 V**2 "
            "(must be strictly positive)\n"
        )

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 1

    def test_malformed_json_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1

    def test_missing_resistor_exits_1(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"resistors_ohm": {"r_la": 1.0}, "v_la_variance_v2": 1.0}))
        assert main(["solve", str(path)]) == 1

    def test_missing_anchor_exits_1(self, tmp_path):
        path = tmp_path / "noanchor.json"
        path.write_text(json.dumps({"resistors_ohm": ASYMMETRIC}))
        assert main(["solve", str(path)]) == 1


class TestCheckCommand:
    def test_solved_variances_pass(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            variances_v2={
                "v_la_sq": 1.0,
                "v_ha_sq": 4.75,
                "v_lb_sq": 2.0 / 3.0,
                "v_hb_sq": 38.0 / 27.0,
            },
        )
        assert main(["check", path]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_equilibrium_variances_fail(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            variances_v2={"v_la_sq": 1.0, "v_ha_sq": 10.0, "v_lb_sq": 5.0, "v_hb_sq": 9.0},
        )
        assert main(["check", path]) == 3
        out = capsys.readouterr().out
        assert out.strip().endswith("FAIL")
        current = [line for line in out.splitlines() if line.startswith("current_residual")]
        assert float(current[0].split(",")[1]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_symmetric_classic_variances_pass(self, tmp_path):
        path = write_config(
            tmp_path,
            resistors_ohm=SYMMETRIC,
            variances_v2={"v_la_sq": 1.0, "v_ha_sq": 9.0, "v_lb_sq": 1.0, "v_hb_sq": 9.0},
        )
        assert main(["check", path]) == 0

    def test_fail_names_the_worst_observable_on_stderr(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            variances_v2={"v_la_sq": 1.0, "v_ha_sq": 10.0, "v_lb_sq": 5.0, "v_hb_sq": 9.0},
        )
        assert main(["check", path, "--tolerance", "1e-6"]) == 3
        captured = capsys.readouterr()
        assert [line.split(",")[0] for line in captured.out.splitlines()] == [
            "current_residual", "voltage_residual", "cross_residual", "FAIL",
        ]
        assert captured.err == (
            "FAIL: voltage_residual is 0.73000000000000009, not below the tolerance 1e-06; "
            "the voltage variance differs between the LH and HL states\n"
        )

    def test_pass_writes_nothing_to_stderr(self, tmp_path, capsys):
        assert main(["check", write_config(tmp_path), "--solve"]) == 0
        assert capsys.readouterr().err == ""

    def test_solve_flag_derives_variances(self, tmp_path):
        assert main(["check", write_config(tmp_path), "--solve"]) == 0

    def test_solve_flag_passes_classic_symmetric_line(self, tmp_path, capsys):
        # its LH cross moment rounds to -9.5e-22 against an exact 0 in HL
        low, high = 42362.95641714836, 81083.9104213523
        path = write_config(
            tmp_path, resistors_ohm={"r_la": low, "r_ha": high, "r_lb": low, "r_hb": high}
        )
        assert main(["check", path, "--solve"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "PASS"
        assert float(out[2].split(",")[1]) < 1e-15

    def test_without_variances_or_flag_exits_1(self, tmp_path):
        assert main(["check", write_config(tmp_path)]) == 1

    def test_solve_flag_checks_the_solved_set(self, tmp_path, capsys):
        # the thermal-equilibrium block is insecure; --solve sets it aside for the solved set
        path = write_config(
            tmp_path,
            variances_v2={"v_la_sq": 1.0, "v_ha_sq": 10.0, "v_lb_sq": 5.0, "v_hb_sq": 9.0},
        )
        assert main(["check", path, "--solve"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"
        assert main(["check", path]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"

    def test_solve_flag_without_anchor_exits_1(self, tmp_path, capsys):
        path = tmp_path / "explicit.json"
        path.write_text(
            json.dumps(
                {
                    "resistors_ohm": SYMMETRIC,
                    "variances_v2": {"v_la_sq": 1, "v_ha_sq": 9, "v_lb_sq": 1, "v_hb_sq": 9},
                }
            )
        )
        assert main(["check", str(path), "--solve"]) == 1
        assert capsys.readouterr().err == (
            "error: check --solve needs 'v_la_variance_v2' in the config\n"
        )

    def test_tight_tolerance_flag(self, tmp_path):
        # rounded variances are secure only at coarse tolerance
        path = write_config(
            tmp_path,
            variances_v2={
                "v_la_sq": 1.0,
                "v_ha_sq": 4.75,
                "v_lb_sq": 0.6667,
                "v_hb_sq": 1.4074,
            },
        )
        assert main(["check", path, "--tolerance", "1e-3"]) == 0
        assert main(["check", path, "--tolerance", "1e-9"]) == 3

    @pytest.mark.parametrize("bad", ["nan", "-1e-9", "0", "inf", "loose"])
    def test_bad_tolerance_is_a_usage_error(self, tmp_path, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", write_config(tmp_path), "--solve", "--tolerance", bad])
        assert excinfo.value.code == 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    config = write_config(
        tmp_path,
        samples_per_bit=50,
        num_bits=40,
        master_seed=7,
        histogram_bins=8,
    )
    outdir = tmp_path / "out"
    assert main(["run", config, str(outdir), "--threads", "1"]) == 0
    return outdir


class TestRunCommand:
    def test_ber_csv(self, artifacts):
        rows = read_csv(artifacts / "ber.csv")
        assert rows[0] == [
            "indicator",
            "ber_percent",
            "leak_percent",
            "threshold",
            "bits_lh",
            "bits_hl",
        ]
        assert [row[0] for row in rows[1:]] == [
            "current_variance",
            "voltage_variance",
            "cross_correlation",
        ]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 100.0
            assert int(row[4]) + int(row[5]) == 40

    def test_histogram_csvs(self, artifacts):
        for name in ("current_variance", "voltage_variance", "cross_correlation"):
            rows = read_csv(artifacts / f"hist_{name}.csv")
            assert rows[0] == ["bin_low", "bin_high", "count_lh", "count_hl"]
            assert len(rows) == 1 + 8
            total = sum(int(row[2]) + int(row[3]) for row in rows[1:])
            assert total == 40

    def test_scatter_csv(self, artifacts):
        rows = read_csv(artifacts / "scatter.csv")
        assert rows[0] == ["v_e_volts", "i_e_amps"]
        assert len(rows) == 1 + 2 * 50  # one block per state

    def test_metadata(self, artifacts):
        metadata = json.loads((artifacts / "metadata.json").read_text())
        assert metadata["generator_algorithm"] == "philox4x64"
        assert metadata["num_bits"] == 40
        assert metadata["samples_per_bit"] == 50
        assert metadata["master_seed"] == 7
        assert metadata["state_policy"] == "alternate"
        assert set(metadata["variances_v2"]) == {"v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq"}

    def test_metadata_round_trip(self, artifacts, tmp_path):
        again = tmp_path / "again"
        assert main(["run", str(artifacts / "metadata.json"), str(again), "--threads", "1"]) == 0
        for name in (
            "ber.csv",
            "hist_current_variance.csv",
            "hist_voltage_variance.csv",
            "hist_cross_correlation.csv",
            "scatter.csv",
            "metadata.json",
        ):
            assert (again / name).read_bytes() == (artifacts / name).read_bytes()

    def test_thread_count_does_not_change_artifacts(self, artifacts, tmp_path):
        threaded = tmp_path / "threaded"
        config = json.loads((artifacts / "metadata.json").read_text())
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", str(config_path), str(threaded), "--threads", "2"]) == 0
        for name in ("ber.csv", "scatter.csv", "hist_voltage_variance.csv"):
            assert (threaded / name).read_bytes() == (artifacts / name).read_bytes()

    def test_overrides(self, tmp_path, capsys):
        config = write_config(tmp_path, samples_per_bit=50, num_bits=40)
        outdir = tmp_path / "override-out"
        code = main(
            [
                "run", config, str(outdir),
                "--bits", "12", "--samples", "10", "--seed", "99",
                "--bins", "4", "--threads", "1",
            ]
        )
        assert code == 0
        metadata = json.loads((outdir / "metadata.json").read_text())
        assert metadata["num_bits"] == 12
        assert metadata["samples_per_bit"] == 10
        assert metadata["master_seed"] == 99
        assert metadata["histogram_bins"] == 4

    def test_zero_bits_exits_1(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", config, str(tmp_path / "x"), "--bits", "0"]) == 1

    def test_infeasible_exits_2(self, tmp_path):
        config = write_config(
            tmp_path,
            resistors_ohm={"r_la": 5000.0, "r_ha": 1000.0, "r_lb": 1000.0, "r_hb": 2000.0},
        )
        assert main(["run", config, str(tmp_path / "x")]) == 2

    def test_explicit_variances_skip_solving(self, tmp_path):
        # an insecure variance set is still runnable for leak experiments
        config = write_config(
            tmp_path,
            variances_v2={"v_la_sq": 1.0, "v_ha_sq": 10.0, "v_lb_sq": 5.0, "v_hb_sq": 9.0},
            samples_per_bit=20,
            num_bits=10,
        )
        assert main(["run", config, str(tmp_path / "leaky"), "--threads", "1"]) == 0


ARTIFACT_NAMES = (
    "ber.csv",
    "hist_current_variance.csv",
    "hist_voltage_variance.csv",
    "hist_cross_correlation.csv",
    "scatter.csv",
)

# sha256 of the artifacts at master seed 20151, in ARTIFACT_NAMES order,
# recorded with the csv.writer-based writer before it formatted in bulk, at
# DIGEST_BITS bits: then two full 16384-sample kernel blocks and a short third
# one, and the bytes do not depend on the block shape. metadata.json names the
# numpy version, so it is compared between runs, not pinned.
DIGEST_BITS = {1000: 37, 32: 1029}
ARTIFACT_DIGESTS = {
    ("alternate", 1000): (
        "44d851809f8fcefa616f38acd8771e9d8003ae6b282ff3fb29998f544d53f682",
        "dace9e0d248cb7fbbd7e219df2b5135741f5eb5ee9d473f9b504edc531872771",
        "a69ddff1b66cf899954c22336605e40c2307bb06ddcdf604c0a09e6c26358e7c",
        "7650c3506df0cfc49da6d95757f6fc48ace353f9a3a82674f8fffea40415e934",
        "6a2d48effa7d067b7f61869d9f6b41fc9750e28c787d3b697d8ca47cf082eace",
    ),
    ("random", 1000): (
        "d6f5619f2b84d3299c41c08f74d608e93dc0dd5d6629b0c49b77aa1c803d938c",
        "744a615859af724d2c49ead11bd5f1e2f7094a1906d0f09203e04924425802fa",
        "de0e49d3b6a77cae40fbaeb6f396869a592671ebe538c944925a4a706b1e4950",
        "5c2fdab53663c4b8e3c91a13d42a05014ac82229225d8ddf61bd80594e3596b6",
        "6a2d48effa7d067b7f61869d9f6b41fc9750e28c787d3b697d8ca47cf082eace",
    ),
    ("alternate", 32): (
        "23ac21e8f2adbd51613c96494908e7eb55fcb28646840d295fe2faf1aa1e5ccf",
        "72c346ae69cd6445ecf9641f64eed67ee9c9cf5dcef47fc835dfc43704dc939d",
        "04d03381417d196f3287185f8c4708154e1431b585783e8428b6b972efe0c9e1",
        "52486d23a814d76660d1e8f73cf13f3c5007404008dee13a5cfb61b4e20bc4e6",
        "7ecb7d33743e40363b3ec2247b069fa8e62c581c1f851a49fdef965b23abd129",
    ),
    ("random", 32): (
        "b6756b6de23f3e3ea73f20cd1ab5d28b6353e08d95e7b58f6c0a327359c54d84",
        "59c92b5b56a618fa58db0457d0511d09efa22e12a4807eff29e546bce9dc494a",
        "f923369c7c7830d1720e36ebab9f67a2c611608b153633f4978a469231fec91d",
        "0984dbbade3764700df6909c2043be13181c9e6f93ef50b931806c9c3e25d139",
        "7ecb7d33743e40363b3ec2247b069fa8e62c581c1f851a49fdef965b23abd129",
    ),
}


class TestArtifactDigests:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("policy, samples", list(ARTIFACT_DIGESTS))
    def test_bytes_are_pinned(self, tmp_path, policy, samples, threads):
        config = write_config(
            tmp_path,
            state_policy=policy,
            samples_per_bit=samples,
            num_bits=DIGEST_BITS[samples],
            master_seed=20151,
        )
        outdir = tmp_path / "out"
        assert main(["run", config, str(outdir), "--threads", str(threads)]) == 0
        got = tuple(
            hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in ARTIFACT_NAMES
        )
        assert got == ARTIFACT_DIGESTS[policy, samples]


class TestRewriteInPlace:
    # kljn run opens each artifact without O_TRUNC and cuts it where the new lines end
    NAMES = (*ARTIFACT_NAMES, "metadata.json")

    def run(self, tmp_path, outdir, samples):
        config = write_config(tmp_path, samples_per_bit=samples, num_bits=40, histogram_bins=8)
        assert main(["run", config, str(outdir), "--threads", "1"]) == 0

    def test_a_shorter_run_over_a_longer_one_gives_the_fresh_bytes(self, tmp_path):
        self.run(tmp_path, tmp_path / "out", 64)
        self.run(tmp_path, tmp_path / "out", 16)
        self.run(tmp_path, tmp_path / "fresh", 16)
        for name in self.NAMES:
            want = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == want

    def test_a_failed_write_leaves_the_lines_written_before_it(self, tmp_path):
        path = tmp_path / "artifact.csv"
        path.write_text("an older and much longer file\n" * 100)

        def lines():
            yield "header\n"
            yield "1,2\n"
            raise MemoryError("no room for the third line")

        with pytest.raises(MemoryError):
            kljn.cli._rewrite(path, lines())
        assert path.read_bytes() == b"header\n1,2\n"

    def test_links_and_modes_fare_as_with_a_truncating_open(self, tmp_path):
        self.run(tmp_path, tmp_path / "fresh", 16)
        outdir = tmp_path / "out"
        outdir.mkdir()
        elsewhere = tmp_path / "elsewhere.csv"
        elsewhere.write_text("old\n" * 10_000)
        (outdir / "scatter.csv").symlink_to(elsewhere)
        (outdir / "ber.csv").write_text("old\n" * 100)
        os.link(outdir / "ber.csv", tmp_path / "ber_link.csv")
        (outdir / "metadata.json").write_text("{}\n")
        (outdir / "metadata.json").chmod(0o600)
        self.run(tmp_path, outdir, 16)
        # the link is written through and stays a link
        assert (outdir / "scatter.csv").is_symlink()
        fresh = tmp_path / "fresh"
        assert elsewhere.read_bytes() == (fresh / "scatter.csv").read_bytes()
        assert (tmp_path / "ber_link.csv").read_bytes() == (fresh / "ber.csv").read_bytes()
        assert (outdir / "metadata.json").stat().st_mode & 0o777 == 0o600


class TestOverflowingResistances:
    # check squares the loop resistance, which overflows the float range at 1e200
    # ohm and underflows to 0 at 1e-200 ohm; solve holds at any common scale
    UNIT = {"r_la": 1.0, "r_ha": 2.0, "r_lb": 3.0, "r_hb": 4.0}
    HUGE = {"r_la": 1e200, "r_ha": 2e200, "r_lb": 3e200, "r_hb": 4e200}
    TINY = {"r_la": 1e-200, "r_ha": 2e-200, "r_lb": 3e-200, "r_hb": 4e-200}
    VARIANCES = {"v_la_sq": 1.0, "v_ha_sq": 2.0, "v_lb_sq": 3.0, "v_hb_sq": 4.0}

    @pytest.mark.parametrize("command", [["check", "--solve"], ["check"]], ids=" ".join)
    def test_one_line_error_and_exit_1(self, tmp_path, command):
        for resistors in (self.HUGE, self.TINY):
            path = write_config(tmp_path, resistors_ohm=resistors, variances_v2=self.VARIANCES)
            done = run_module(command[0], path, *command[1:])
            assert_one_line_error(done)
            assert "out of range" in done.stderr and "floating-point" not in done.stderr

    @pytest.mark.parametrize(
        "resistors",
        [
            {"r_la": 1e200, "r_ha": 1.0, "r_lb": 2.0, "r_hb": 1.0},
            {"r_la": 1.0, "r_ha": 1e200, "r_lb": 1.0, "r_hb": 2.0},
        ],
        ids=["underflowing", "overflowing"],
    )
    def test_variances_outside_the_double_range_exit_1(self, tmp_path, resistors):
        # feasible quads spanning 1e200: their variances leave the double range
        done = run_module("solve", write_config(tmp_path, resistors_ohm=resistors))
        assert_one_line_error(done)
        assert "outside the range of a double" in done.stderr

    def test_solve_prints_the_lines_of_the_unit_quad(self, tmp_path, capsys):
        outputs = []
        for resistors in (self.UNIT, self.HUGE, self.TINY):
            assert main(["solve", write_config(tmp_path, resistors_ohm=resistors)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and len(outputs[0].out.splitlines()) == 4
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestOneLineErrors:
    def test_bit_count_beyond_stream_ids(self, tmp_path):
        # SimConfig rejects 2**61 + 1 bits before anything is allocated
        outdir = tmp_path / "out"
        done = run_module("run", write_config(tmp_path), str(outdir), "--bits", str(2**61 + 1))
        assert_one_line_error(done)
        assert not outdir.exists()

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert_one_line_error(run_module("solve", str(path)))

    @pytest.mark.parametrize("command", ["solve", "check", "run"])
    def test_config_nested_too_deeply(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        outdir = [str(tmp_path / "out")] if command == "run" else []
        done = run_module(command, str(path), *outdir)
        assert_one_line_error(done)
        assert "is not valid JSON: maximum recursion depth exceeded" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_config_int_literal_of_over_4300_digits(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"resistors_ohm": {"r_la": 1' + "0" * 5000 + "}}")
        done = run_module("solve", str(path))
        assert_one_line_error(done)
        assert "is not valid JSON: Exceeds the limit" in done.stderr

    def test_resistance_beyond_the_range_of_a_double(self, tmp_path):
        resistors = dict(ASYMMETRIC, r_la=10**400)
        done = run_module("solve", write_config(tmp_path, resistors_ohm=resistors))
        assert_one_line_error(done)
        assert done.stderr.startswith("error: resistors_ohm.r_la must be positive and finite, got 1")

    @pytest.mark.parametrize(
        "outdir, flags",
        [
            # the largest accepted count: numpy fails at once to map its 2 EiB state mask
            ("out", ("--bits", str(2**61), "--threads", "1")),
            ("out", ("--threads", "-1")),
            ("new/a/b", ("--threads", "-1")),
            # a directory that was there before the run stays, and stays empty
            ("empty", ("--threads", "-1")),
            # mkdir makes `new`, then fails on the name: `new` goes too
            ("new/" + "x" * 300, ("--threads", "1")),
        ],
        ids=["bits-2**61", "threads-negative", "nested", "existing-empty", "name-too-long"],
    )
    def test_failed_run_leaves_no_directory(self, tmp_path, outdir, flags):
        config = write_config(tmp_path)
        (tmp_path / "empty").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert_one_line_error(run_module("run", config, str(tmp_path / outdir), *flags))
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "policy, flags, counts",
        [
            ("alternate", ("--bits", "1"), "1 LH and 0 HL"),
            # both coins of seed 1 come up HL
            ("random", ("--bits", "2", "--seed", "1"), "0 LH and 2 HL"),
        ],
        ids=["one-bit", "random-one-state"],
    )
    def test_a_run_with_one_line_state(self, tmp_path, policy, flags, counts):
        outdir = tmp_path / "out"
        config = write_config(tmp_path, state_policy=policy)
        done = run_module("run", config, str(outdir), "--threads", "1", *flags)
        assert_one_line_error(done)
        assert done.stderr == f"error: both line states must be present, got {counts} bits\n"
        assert not outdir.exists()

    @pytest.fixture
    def no_run(self, monkeypatch):
        def run_exchange(*args, **kwargs):
            pytest.fail("run_exchange was called")

        monkeypatch.setattr(kljn.cli, "run_exchange", run_exchange)

    @pytest.mark.parametrize("outdir", ["afile", "afile/sub"])
    def test_unusable_output_path_fails_before_the_run(self, tmp_path, no_run, capsys, outdir):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        config = write_config(tmp_path)
        assert main(["run", config, str(tmp_path / outdir), "--threads", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert afile.read_text() == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_mkdir_error_fails_before_the_run(self, tmp_path, no_run, capsys, monkeypatch):
        # as root no directory is unwritable, so mkdir's permission error is injected
        def mkdir(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(Path, "mkdir", mkdir)
        outdir = tmp_path / "locked" / "out"
        assert main(["run", write_config(tmp_path), str(outdir), "--threads", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(PermissionError) as made:
            outdir.mkdir(parents=True, exist_ok=True)
        assert captured.err == f"error: {made.value}\n"

    @pytest.mark.parametrize(
        "outdir, named",
        [("nowhere", "nowhere"), ("nowhere/sub/out", "nowhere"), ("loop/sub", "loop/sub")],
        ids=["dangling-link", "under-a-dangling-link", "under-a-link-loop"],
    )
    def test_broken_link_fails_before_the_run(self, tmp_path, no_run, capsys, outdir, named):
        (tmp_path / "nowhere").symlink_to(tmp_path / "missing")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        config = write_config(tmp_path)
        assert main(["run", config, str(tmp_path / outdir), "--threads", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the line mkdir's own error gives, naming the path that mkdir names
        with pytest.raises(OSError) as made:
            (tmp_path / outdir).mkdir(parents=True, exist_ok=True)
        assert captured.err == f"error: {made.value}\n"
        assert made.value.filename == str(tmp_path / named)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "loop", "nowhere"]

    def test_one_noise_stream_set_draws_both_scatter_traces(self, tmp_path, monkeypatch):
        made, per_call = [], []

        class CountedStreams(kljn.simulation.NormalStreams):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        def scatter_trace(*args):
            before = len(made)
            traces = kljn.simulation.scatter_trace(*args)
            per_call.append(len(made) - before)
            return traces

        monkeypatch.setattr(kljn.simulation, "NormalStreams", CountedStreams)
        monkeypatch.setattr(kljn.cli, "scatter_trace", scatter_trace)
        path = write_config(tmp_path, samples_per_bit=16, num_bits=8)
        assert main(["run", path, str(tmp_path / "out"), "--threads", "1"]) == 0
        assert per_call == [1]
        # one window of each state
        assert len(read_csv(tmp_path / "out" / "scatter.csv")) == 1 + 2 * 16

    def test_run_computes_every_artifact_before_it_writes(self, tmp_path, capsys, monkeypatch):
        # the scatter traces are the last values drawn: a failure there leaves no files
        def scatter_trace(*args):
            raise MemoryError("no room for the trace")

        monkeypatch.setattr(kljn.cli, "scatter_trace", scatter_trace)
        path = write_config(tmp_path, samples_per_bit=16, num_bits=8)
        outdir = tmp_path / "out"
        assert main(["run", path, str(outdir), "--threads", "1"]) == 1
        assert capsys.readouterr() == ("", "error: out of memory: no room for the trace\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_variances_warn_nothing(self, tmp_path, threads):
        # every window's variance overflows to inf, which ExchangeResult rejects
        variances = dict.fromkeys(("v_la_sq", "v_ha_sq", "v_lb_sq", "v_hb_sq"), 1e308)
        path = write_config(tmp_path, variances_v2=variances, samples_per_bit=50, num_bits=200)
        outdir = tmp_path / "out"
        done = run_module("run", path, str(outdir), "--threads", threads)
        assert_one_line_error(done)
        assert not outdir.exists()


def _no_memory():
    raise MemoryError("no room for the share")


def _die_mid_share():
    # the child sends its header and its first row, then dies sending the second
    sent = []
    real_send_bytes = multiprocessing.connection.Connection.send_bytes

    def send_bytes(self, *args, **kwargs):
        sent.append(None)
        if len(sent) == 2:
            os._exit(9)
        real_send_bytes(self, *args, **kwargs)

    multiprocessing.connection.Connection.send_bytes = send_bytes


@pytest.mark.parametrize(
    "fail, error",
    [
        (
            lambda: os._exit(9),
            "worker process for bits [40, 80) exited with code 9 before sending its result",
        ),
        (
            _die_mid_share,
            "worker process for bits [40, 80) exited with code 9 before sending its result",
        ),
        # an exception the child sends keeps its type, and with it its error line
        (_no_memory, "out of memory: no room for the share"),
    ],
    ids=["child-dies", "child-dies-mid-share", "child-raises"],
)
def test_failed_child_gives_one_line_error(tmp_path, capsys, monkeypatch, fail, error):
    # 2 workers; the child is forked, so it runs this test's _simulate_chunk, which
    # calls ``fail`` in the child only
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    monkeypatch.setattr("kljn.simulation.os.cpu_count", lambda: 2)
    parent = os.getpid()
    real_chunk = kljn.simulation._simulate_chunk

    def chunk(config, start, hl_flags, columns):
        if os.getpid() != parent:
            fail()
        real_chunk(config, start, hl_flags, columns)

    monkeypatch.setattr(kljn.simulation, "_simulate_chunk", chunk)
    outdir = tmp_path / "out"
    path = write_config(tmp_path, samples_per_bit=16, num_bits=80)
    assert main(["run", path, str(outdir), "--threads", "2"]) == 1
    assert multiprocessing.active_children() == []
    assert not outdir.exists()
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_solve_and_check_run_without_the_draw_function(tmp_path, capsys, missing_draw_symbol):
    # only drawing noise needs numpy's exported random_standard_normal_fill
    path = write_config(tmp_path, samples_per_bit=16, num_bits=8)
    assert main(["solve", path]) == 0
    assert main(["check", path, "--solve"]) == 0
    capsys.readouterr()
    outdir = tmp_path / "out"
    assert main(["run", path, str(outdir), "--threads", "1"]) == 1
    assert not outdir.exists()
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"error: numpy \S+'s random\._generator exports no .*\n", err)


def test_import_leaves_out_multiprocessing():
    # only a run on two or more workers imports multiprocessing
    code = "import sys, kljn.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(kljn.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


README = Path(__file__).parents[1] / "README.md"


class TestReadmeTranscripts:
    @pytest.mark.parametrize(
        "command",
        ["solve config.json", "check config.json --solve", "check thermal-equilibrium.json"],
    )
    def test_output_matches(self, tmp_path, command):
        text = README.read_text(encoding="utf-8")
        # command -> transcript of every `kljn solve` and `kljn check` block
        sessions = re.findall(r"```sh\n\$ kljn ((?:solve|check) [^\n]*)\n(.*?)```", text, re.DOTALL)
        transcript = dict(sessions)[command]
        config = json.loads(re.search(r"```json\n(.*?)```", text, re.DOTALL).group(1))
        (tmp_path / "config.json").write_text(json.dumps(config))
        variances = re.search(r"Here `variances_v2` is `(\{.*?\})`", text).group(1)
        config["variances_v2"] = json.loads(variances)
        (tmp_path / "thermal-equilibrium.json").write_text(json.dumps(config))

        args = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command.split()]
        done = run_module(*args)
        # a transcript shows stdout, then stderr; only a FAIL writes to stderr
        failed = "FAIL" in done.stdout.splitlines()
        assert done.returncode == (3 if failed else 0)
        assert done.stdout + done.stderr == transcript
        assert done.stderr == (transcript.splitlines(keepends=True)[-1] if failed else "")


class TestUsageErrors:
    def test_no_arguments_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main parses every call with the parser built on the first; no option
        # of one call may carry over into the next
        assert build_parser() is build_parser()
        config = write_config(tmp_path, samples_per_bit=8, num_bits=60)
        assert main(["solve", config]) == 0
        assert main(["check", config, "--solve"]) == 0
        assert main(["run", config, str(tmp_path / "forty"), "--bits", "40", "--threads", "1"]) == 0
        assert main(["run", config, str(tmp_path / "sixty"), "--threads", "1"]) == 0
        for outdir, bits in (("forty", 40), ("sixty", 60)):
            assert json.loads((tmp_path / outdir / "metadata.json").read_text())["num_bits"] == bits
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["run", config])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.startswith("usage: kljn run ")
