import inspect
import json
import math
from fractions import Fraction

import pytest

from sgclone import ClonerSpec, DomainError, NoiseCovariance, verify_bounds, verify_fock, verify_mc
from sgclone import cli, cloner, estimation_bounds, fock_oracle, verify
from sgclone.cli import main

EPS = Fraction(1, 10**9)


class TestVerifySuites:
    def test_bounds_suite_passes(self, bounds_report):
        assert bounds_report.overall
        assert len(bounds_report.checks) >= 15

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

    @pytest.mark.parametrize("option, limit", [("nodes", fock_oracle.NODES_LIMIT),
                                               ("cutoff", fock_oracle.CUTOFF_LIMIT)])
    def test_fock_suite_rejects_a_size_whose_double_is_too_large_up_front(
        self, monkeypatch, option, limit
    ):
        def no_mixture(*args):
            raise AssertionError("a mixture was built before the size was checked")

        monkeypatch.setattr(fock_oracle, "mixture_density_matrix", no_mixture)
        # the message names the value given and its own limit, not their doubles
        given = limit // 2 + 1
        with pytest.raises(DomainError, match=rf"^{option} must .*, {limit // 2}\], got {given}$"):
            verify_fock(**{option: given})

    def test_fock_suite_defaults_to_the_oracle_grid(self, monkeypatch):
        # None: each state resolves its own grid through _default_grid; given nodes fix one grid
        nodes = inspect.signature(verify_fock).parameters["nodes"].default
        assert nodes is None
        calls = []
        default_grid = fock_oracle._default_grid

        def counted(center, noise):
            calls.append(noise)
            return default_grid(center, noise)

        monkeypatch.setattr(fock_oracle, "_default_grid", counted)
        verify_fock(nodes=21)
        assert calls == []
        assert verify_fock().overall and calls

    def test_a_second_fock_suite_adds_no_cache_misses(self):
        caches = (fock_oracle._hermgauss, fock_oracle._kept_grid, fock_oracle._spectrum)
        verify_fock()
        misses = [cache.cache_info().misses for cache in caches]
        verify_fock()
        assert [cache.cache_info().misses for cache in caches] == misses

    def test_fock_suite_fails_with_corrupted_tolerance(self):
        report = verify_fock(tolerance=-1.0, nodes=21)
        assert not report.overall

    def test_mc_suite_passes_with_small_samples(self):
        report = verify_mc(samples=20_000, seed=42)
        failed = [c for c in report.checks if not c.passed]
        assert report.overall, failed

    def test_mc_check_names_show_an_unprintable_seed_by_its_size(self):
        names = [c.name for c in verify_mc(samples=10, seed=10**5000).checks]
        assert names[:4] == [
            "joint measurement var_x (seed an integer of 16610 bits)",
            "joint measurement var_p (seed an integer of 16610 bits)",
            "joint measurement variance product (seed an integer of 16610 bits)",
            "joint measurement var_x (seed 42)",
        ]

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

    def test_one_wrong_cascade_fails_the_closure(self, monkeypatch, capsys):
        real = cloner.cascade

        def faulty(first, second):
            out = real(first, second)
            if (first.n_in, first.m_out, second.m_out) != (2, 3, 5):
                return out
            return ClonerSpec(out.n_in, out.m_out,
                              NoiseCovariance(out.noise.var_x + EPS, out.noise.var_p + EPS))

        monkeypatch.setattr(cloner, "cascade", faulty)
        assert main(["verify-bounds", "--format", "json"]) == 1
        failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["pass"]]
        assert [(c["name"], c["expected"], c["observed"]) for c in failed] == [
            ("optimal-cascade closure (N<=M<=L<=32)", 5984, 5983)]

    def test_one_wrong_lower_bound_fails_the_bound_chain(self, monkeypatch):
        real = estimation_bounds.cloning_lower_bound
        monkeypatch.setattr(estimation_bounds, "cloning_lower_bound",
                            lambda n, m: real(n, m) + (EPS if (n, m) == (3, 7) else 0))
        report = verify_bounds()
        assert not report.overall
        assert [(c.name, c.expected, c.observed) for c in report.checks if not c.passed] == [
            ("bound-chain identity (N<=M<=64, inf)", 2144, 2143)]

    def test_a_turn_the_wrong_way_fails_the_oracle_checks(self, monkeypatch, capsys):
        # An off-axis coherent centre is built at |alpha| and turned by the phase of alpha;
        # turned by minus that phase it sits at conj(alpha), which the report must see.
        turn = fock_oracle._turn
        monkeypatch.setattr(fock_oracle, "_turn", lambda rho, phi: turn(rho, -phi))
        assert main(["verify-fock", "--format", "json"]) == 1
        failed = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["pass"]}
        assert failed == {f"{check} ({n},{m})" for check in ("oracle fidelity", "center invariance")
                          for n, m in verify.ORACLE_SCENARIOS + ((1, "inf"),)} \
            | {"moments: mean_p of center 1+1j"}

    def test_report_dict_shape(self, bounds_report):
        payload = bounds_report.as_dict()
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

    @pytest.mark.parametrize("args", [(0, 2), (3, 2), (1, cli.TABLE_LIMIT + 1)])
    def test_table_rejects_bad_counts(self, args):
        with pytest.raises(DomainError):
            cli._table(*args)

    def test_table_checks_the_format_before_building_the_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the grid was built before the format was checked")

        monkeypatch.setattr(cli, "_table", no_grid)
        with pytest.raises(SystemExit) as exc:
            main(["table", "1", "2", "--format", "xml"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_corrupted_tolerance_exits_one(self, capsys, fmt):
        code = main(["verify-fock", "--tolerance=-1", "--nodes", "21", "--format", fmt])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out)["overall"] is False
        elif fmt == "csv":
            assert "false" in [row.rsplit(",", 1)[1] for row in captured.out.splitlines()]
        else:
            assert captured.out.splitlines()[-1].startswith("overall: FAIL")

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
            ["verify-mc", "--samples", str(10**15)],
            ["verify-fock", "--cutoff", "1000000000", "--nodes", "2"],
            ["table", "1", "100000000"],
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
        self, capsys, bounds_report, argv, suite, options
    ):
        assert main([*argv, "--format", "json"]) == 0
        expected = bounds_report if suite is verify_bounds else suite(**options)
        assert capsys.readouterr().out == json.dumps(expected.as_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("option, given, limit", [
        ("nodes", fock_oracle.NODES_LIMIT // 2 + 1, fock_oracle.NODES_LIMIT // 2),
        ("cutoff", 513, 512),
    ])
    def test_verify_fock_names_the_size_given_and_its_own_limit(self, capsys, option, given, limit):
        assert main(["verify-fock", f"--{option}", str(given)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f", {limit}], got {given}\n")

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
