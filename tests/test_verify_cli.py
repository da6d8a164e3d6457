import json
import math

import pytest

from sgclone import DomainError, verify_bounds, verify_fock, verify_mc
from sgclone.cli import emit_table, main


class TestVerifySuites:
    def test_bounds_suite_passes(self):
        report = verify_bounds()
        assert report.overall
        assert len(report.checks) >= 15

    def test_fock_suite_passes_on_reduced_grid(self):
        report = verify_fock(nodes=21)
        failed = [c for c in report.checks if not c.passed]
        assert report.overall, failed

    def test_fock_suite_rejects_nan_tolerance(self):
        with pytest.raises(DomainError):
            verify_fock(tolerance=math.nan)

    @pytest.mark.parametrize("tolerance", ["x", True, None, 1j, math.inf])
    def test_fock_suite_rejects_non_real_tolerance(self, tolerance):
        with pytest.raises(DomainError):
            verify_fock(tolerance=tolerance)

    def test_fock_suite_fails_with_corrupted_tolerance(self):
        report = verify_fock(tolerance=-1.0, nodes=21)
        assert not report.overall

    def test_mc_suite_passes_with_small_samples(self):
        report = verify_mc(samples=20_000, seed=42)
        failed = [c for c in report.checks if not c.passed]
        assert report.overall, failed

    def test_mc_checks_read_independent_draws(self):
        # each var_x, scaled to unit expectation, comes from its own seed
        observed = {c.name: c.observed for c in verify_mc(samples=10_000).checks}
        scaled = [observed["joint measurement var_x (seed 42)"],
                  observed["noiseless clone var_x"] / 0.5,
                  observed["displaced center var_x at noise 1"] / 1.5]
        scaled += [observed[f"heterodyne estimate var_x (N={n})"] * n for n in (1, 2, 4, 8)]
        for i, a in enumerate(scaled):
            for b in scaled[i + 1:]:
                assert a != pytest.approx(b, rel=1e-9)

    def test_report_dict_shape(self):
        report = verify_bounds()
        payload = report.as_dict()
        assert set(payload) == {"checks", "overall"}
        assert payload["overall"] is True
        assert set(payload["checks"][0]) == {"name", "expected", "observed", "tolerance", "pass"}


class TestCliValues:
    def test_fidelity_text(self, capsys):
        assert main(["fidelity", "1", "2"]) == 0
        assert capsys.readouterr().out == "0.666667 (= 2/3)\n"

    def test_variance_unbounded_text(self, capsys):
        assert main(["variance", "1", "inf"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_cascade_text(self, capsys):
        assert main(["cascade", "1", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert out == "composed 0.75 (= 3/4), optimal 0.75 (= 3/4), match=true\n"

    def test_fidelity_json_round_trip(self, capsys):
        assert main(["fidelity", "1", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 1, "m": "2", "fidelity": 2 / 3}

    def test_variance_squeezed_pair(self, capsys):
        assert main(["variance", "1", "2", "--r", "0.5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["var_x"] * payload["var_p"] == pytest.approx(0.25, rel=1e-15)

    def test_table_csv(self, capsys):
        assert main(["table", "1", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "n,m,variance,fidelity",
            "1,1,0,1",
            "1,2,0.5,0.666666666667",
            "1,3,0.666666666667,0.6",
        ]
        assert "\r" not in out

    def test_table_json_round_trip(self, capsys):
        assert main(["table", "2", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 4 + 3
        from sgclone import optimal_fidelity, optimal_noise_variance

        for row in rows:
            assert row["variance"] == float(optimal_noise_variance(row["n"], row["m"]).var_x)
            assert row["fidelity"] == float(optimal_fidelity(row["n"], row["m"]))

    def test_table_contains_three_to_six_row(self, capsys):
        main(["table", "3", "6", "--format", "csv"])
        out = capsys.readouterr().out
        assert "3,6,0.166666666667,0.857142857143" in out.splitlines()

    @pytest.mark.parametrize(
        "args", [("a", 3), (1, 2.5), (1, math.inf), (True, 2), (0, 2), (3, 2), (1, 2, "xml")]
    )
    def test_table_rejects_bad_arguments(self, args):
        with pytest.raises(DomainError):
            emit_table(*args)

    def test_repeat_invocations_are_byte_identical(self, capsys):
        main(["table", "1", "8", "--format", "csv"])
        first = capsys.readouterr().out
        main(["table", "1", "8", "--format", "csv"])
        assert capsys.readouterr().out == first

    def test_mc_invocations_are_byte_identical(self, capsys):
        args = ["verify-mc", "--samples", "5000", "--seed", "42", "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestCliExitCodes:
    def test_verify_bounds_exits_zero(self, capsys):
        assert main(["verify-bounds"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_corrupted_tolerance_exits_one(self, capsys):
        code = main(["verify-fock", "--tolerance=-1", "--nodes", "21", "--format", "json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["overall"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["variance", "1", "2", "--r", "1000"],
            ["variance", "1", "2", "--r", "-1000"],
            ["verify-mc", "--seed", "-1", "--samples", "10"],
            ["verify-fock", "--tolerance", "nan"],
            ["verify-fock", "--tolerance", "inf"],
            ["verify-fock", "--cutoff", "0"],
            ["verify-fock", "--nodes", "1"],
            ["verify-mc", "--samples", "1"],
            ["table", "0", "2"],
        ],
    )
    def test_bad_numeric_argument_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")

    @pytest.mark.parametrize(
        "argv, suite, options",
        [
            (["verify-mc", "--samples", "20000", "--seed", "7"], verify_mc, {"samples": 20000, "seed": 7}),
            (["verify-fock", "--nodes", "21"], verify_fock, {"nodes": 21}),
            (["verify-bounds"], verify_bounds, {}),
        ],
    )
    def test_given_options_reach_the_suite_and_the_rest_take_its_defaults(
        self, capsys, argv, suite, options
    ):
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(suite(**options).as_dict(), indent=2) + "\n"

    def test_reversed_counts_exit_two(self, capsys):
        assert main(["fidelity", "2", "1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_table_range_exits_two(self, capsys):
        assert main(["table", "3", "2"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_count_token_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "1", "lots"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_run_config_direct(self, capsys):
        assert main(["fidelity", "3", "6"]) == 0
        assert capsys.readouterr().out == "0.857143 (= 6/7)\n"
