import csv
import json

import pytest

from kljn.cli import main

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
        assert "v_hb_sq" in capsys.readouterr().err

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

    @pytest.mark.parametrize("bad", ["nan", "-1e-9", "inf", "loose"])
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


class TestUsageErrors:
    def test_no_arguments_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1
