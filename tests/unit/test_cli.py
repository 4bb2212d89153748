"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestVerify:
    def test_thresholding_is_ldp(self, capsys):
        code = main(
            [
                "verify",
                "--range", "0", "8",
                "--epsilon", "0.5",
                "--arm", "thresholding",
                "--input-bits", "12",
                "--expect", "ldp",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "threshold" in out

    def test_baseline_is_not_ldp(self, capsys):
        code = main(
            [
                "verify",
                "--range", "0", "8",
                "--arm", "baseline",
                "--input-bits", "12",
                "--expect", "not-ldp",
            ]
        )
        assert code == 0
        assert "violated" in capsys.readouterr().out

    def test_expectation_mismatch_fails(self):
        code = main(
            [
                "verify",
                "--range", "0", "8",
                "--arm", "baseline",
                "--input-bits", "12",
                "--expect", "ldp",
            ]
        )
        assert code == 1

    def test_ideal_arm(self, capsys):
        assert main(["verify", "--range", "0", "8", "--arm", "ideal"]) == 0
        assert "0.5" in capsys.readouterr().out


class TestCalibrate:
    def test_prints_both_policies(self, capsys):
        code = main(
            [
                "calibrate",
                "--range", "0", "10",
                "--epsilon", "0.5",
                "--input-bits", "14",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resampling" in out and "thresholding" in out
        assert "exact calibration" in out


class TestNoise:
    def test_prints_pairs(self, capsys):
        code = main(
            [
                "noise",
                "--range", "0", "8",
                "--arm", "thresholding",
                "--input-bits", "12",
                "--seed", "3",
                "4.0", "2.0",
            ]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 3
        assert all("->" in line for line in out[:2])
        # Every release is budget-accounted (dplint DPL004).
        assert out[2].startswith("budget")
        assert "2 release(s)" in out[2]

    def test_seed_reproducible(self, capsys):
        argv = [
            "noise", "--range", "0", "8", "--arm", "thresholding",
            "--input-bits", "12", "--seed", "9", "4.0",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_budget_below_the_request_is_refused_whole(self, capsys):
        # Two values at the arm's claimed loss cost more than --budget 1.5:
        # the one budget refuses the request and no value is printed.
        code = main(
            [
                "noise", "--range", "0", "8", "--arm", "thresholding",
                "--input-bits", "12", "--seed", "3", "--budget", "1.5",
                "4.0", "2.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "->" not in captured.out
        assert "cannot cover" in captured.err

    def test_out_of_range_value_errors(self, capsys):
        code = main(
            ["noise", "--range", "0", "8", "--arm", "ideal", "99.0"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDatasets:
    def test_lists_all_seven(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("auto-mpg", "ujiindoorloc", "statlog-heart"):
            assert name in out


class TestLatency:
    @pytest.mark.parametrize("mode", ["threshold", "resample"])
    def test_reports_cycles(self, capsys, mode):
        code = main(["latency", "--mode", mode, "--samples", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean cycles" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSelftest:
    def test_healthy_generator_passes(self, capsys):
        code = main(["selftest", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASSED" in out
        assert "urng-monobit" in out


class TestOracleCommand:
    def test_frequency_estimation_runs(self, capsys):
        code = main(
            [
                "oracle", "--oracle", "oue", "--categories", "6",
                "--devices", "600", "--epochs", "2", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle: OUE" in out
        assert "bits/report" in out
        assert "retained reports: 0" in out

    def test_reproducible_for_fixed_seed(self, capsys):
        argv = [
            "oracle", "--oracle", "olh", "--categories", "8",
            "--devices", "500", "--seed", "9",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_heavy_hitters_mode(self, capsys):
        code = main(
            [
                "oracle", "--heavy-hitters", "3", "--domain-bits", "8",
                "--devices", "4000", "--epsilon", "3", "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heavy hitters: top-3" in out
        assert "est freq" in out
