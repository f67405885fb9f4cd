import dataclasses
import json
import math
import os
import stat
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ess_toolkit import estimator, generators, harness
from ess_toolkit import (
    ExperimentConfig,
    GeneratorSpec,
    OutOfRangeError,
    band_endpoints,
    emit_report,
    load_distribution,
    make_distribution,
    report_dict,
    run_experiment,
    sample_sizes,
    write_distribution,
    EstimatorParams,
)

from ess_toolkit.oracle import AliasTable

from conftest import validate


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        dist_source="zipf:n=1000,s=1.0",
        eps=0.2,
        beta=0.2,
        gamma=0.2,
        mode="bicriteria",
        trials=20,
        master_seed=31337,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_timing(report):
    return [dataclasses.replace(t, wall_time_ns=0) for t in report.trials]


class TestConfigValidation:
    def test_trials_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            small_config(trials=0)
        for trials in (2.5, True, "3", None):
            with pytest.raises(OutOfRangeError, match="trials must be an integer"):
                small_config(trials=trials)
        # an integer type other than int is kept as a plain int
        assert type(small_config(trials=np.int64(3)).trials) is int

    def test_stage_sizes_checked_before_loading(self):
        with pytest.raises(OutOfRangeError, match="^t = "):
            small_config(gamma=1e-10)
        # a degenerate plan draws nothing, so its sizes are never formed
        small_config(eps=0.9, gamma=1e-200)

    def test_bicriteria_needs_gamma(self):
        with pytest.raises(OutOfRangeError):
            small_config(gamma=None)

    def test_unicriterion_without_gamma_ok(self):
        small_config(mode="unicriterion", gamma=None)

    def test_mode_and_format_checked(self):
        with pytest.raises(OutOfRangeError):
            small_config(mode="both")
        with pytest.raises(OutOfRangeError):
            small_config(format="xml")

    def test_eps_range(self):
        with pytest.raises(OutOfRangeError):
            small_config(eps=0.0)

    @pytest.mark.parametrize("eps", [np.float32(0.25), Fraction(1, 4)])
    def test_numeric_eps_gives_a_json_report(self, eps):
        # stored as the plan's float, so the report is written, and written
        # as for the float 0.25
        config = small_config(eps=eps, trials=3)
        assert type(config.eps) is float and config.eps == 0.25
        report = run_experiment(config)
        data = json.loads(emit_report(report))
        assert data["config"]["eps"] == 0.25
        assert strip_timing(report) == strip_timing(run_experiment(small_config(eps=0.25, trials=3)))

    def test_plan_values_are_stored_as_floats(self):
        config = small_config(beta=1, gamma=np.float64(0.2))
        assert type(config.beta) is float and type(config.gamma) is float
        assert b'"beta":1.0' in emit_report(run_experiment(dataclasses.replace(config, trials=1)))
        # unicriterion ignores gamma and stores None, which the report writes
        assert small_config(mode="unicriterion", gamma=0.3).gamma is None

    @pytest.mark.parametrize("overrides", [{"beta": True}, {"eps": Decimal("0.25")}, {"gamma": "0.2"}])
    def test_non_real_plan_values_rejected(self, overrides):
        with pytest.raises(OutOfRangeError, match="must be a real number"):
            small_config(**overrides)

    def test_params_follow_mode(self):
        assert small_config().params == EstimatorParams(0.2, 0.2, 0.2)
        uni = small_config(mode="unicriterion", gamma=0.3)
        assert uni.params == EstimatorParams(0.2, 0.2)

    def test_paths_stored_as_strings_and_plan_kept(self, tmp_path):
        source, out = tmp_path / "d.csv", tmp_path / "r.json"
        config = small_config(dist_source=source, out_path=out)
        assert (config.dist_source, config.out_path) == (str(source), str(out))
        assert config == small_config(dist_source=str(source), out_path=str(out))
        # the plan is kept, not built again on each read
        assert config.params is config.params

    def test_dist_source_must_reproduce_the_run(self):
        # a distribution object cannot be written back as a source, and a
        # spec object is not a source: its string form is
        spec = GeneratorSpec("uniform", n=5)
        for source in (make_distribution(spec), spec):
            with pytest.raises(OutOfRangeError, match="dist_source"):
                small_config(dist_source=source)

    @pytest.mark.parametrize("out_path", [b"/tmp/r.json", 123])
    def test_out_path_must_be_a_str(self, out_path):
        # a bytes path would fail only when the report is written, after
        # every trial; both fail when the config is made, before loading
        with pytest.raises(OutOfRangeError, match="out_path must be a str"):
            small_config(out_path=out_path)

    def test_master_seed_range(self):
        # derive_seed reduces modulo 2**64, so -1 and 2**64-1 would alias
        small_config(master_seed=0)
        small_config(master_seed=2**64 - 1)
        for seed in (-1, 2**64, 2**70):
            with pytest.raises(OutOfRangeError):
                small_config(master_seed=seed)
        for seed in (1.5, True, False, "7"):
            with pytest.raises(OutOfRangeError, match="master_seed must be an integer"):
                small_config(master_seed=seed)
        assert type(small_config(master_seed=np.uint64(2**64 - 1)).master_seed) is int


class TestLoadDistribution:
    def test_generator_string(self):
        dist = load_distribution("uniform:n=7")
        assert dist.size == 7

    def test_file_path(self, tmp_path):
        path = tmp_path / "d.csv"
        write_distribution(make_distribution(GeneratorSpec("uniform", n=5)), path)
        assert load_distribution(str(path)).size == 5
        assert load_distribution(path).size == 5

    def test_generator_spec_checked_once(self, monkeypatch):
        calls = []
        check = generators._check_spec

        def spied_check(spec):
            calls.append(spec.family)
            check(spec)

        monkeypatch.setattr(generators, "_check_spec", spied_check)
        assert load_distribution("zipf:n=10,s=1.0").size == 10
        assert calls == ["zipf"]

    @pytest.mark.parametrize("source", [" uniform:n=3", "uniform :n=3", " uniform: n = 3"])
    def test_spaces_around_the_family_read_as_a_generator(self, source):
        # the same grammar as parse_spec, which strips the family
        dist = load_distribution(source)
        assert dist.size == 3


def check_band(estimate, dist, eps, beta, gamma, mode):
    """The harness's verdict on ``estimate`` against the exact band."""
    low, high, _, _ = band_endpoints(dist, eps, beta, gamma, mode)
    return harness._params(eps, beta, gamma, mode).in_band(estimate, low, high)


# unicriterion estimates by their verdict against the point-mass band [1, 1]:
# [0.5, 1.5) rounds half up into it
HALF_UP_VERDICTS = {
    True: [0.5, math.nextafter(1.5, 0.0)],
    False: [math.nextafter(0.5, 0.0), 1.5],
}


class TestCheckBand:
    def test_inside(self):
        dist = make_distribution(GeneratorSpec("uniform", n=1000))
        assert check_band(900.0, dist, 0.1, 0.1, 0.1, "bicriteria") is True

    def test_below_band_low(self):
        dist = make_distribution(GeneratorSpec("uniform", n=1000))
        low, high, _, _ = band_endpoints(dist, 0.1, 0.1, 0.1, "bicriteria")
        assert check_band(low - 1.1, dist, 0.1, 0.1, 0.1, "bicriteria") is False
        assert check_band(high + 1.1, dist, 0.1, 0.1, 0.1, "bicriteria") is False

    def test_point_mass_any_params(self):
        dist = validate({0: 1.0})
        for eps, beta, gamma in [(0.1, 0.1, 0.1), (0.5, 0.2, 0.01), (0.05, 2.0, 5.0)]:
            assert check_band(1.0, dist, eps, beta, gamma, "bicriteria") is True

    def test_unicriterion_rounds_to_integer(self):
        # a point-mass answer of ~0.9902 rounds to 1, which is in [1, 1]
        dist = validate({0: 1.0})
        assert check_band(1.01 / 1.02, dist, 0.2, 0.2, None, "unicriterion") is True
        assert check_band(0.4, dist, 0.2, 0.2, None, "unicriterion") is False

    def test_unicriterion_rounds_half_up_at_both_edges(self):
        # the point-mass band is [1, 1]: [0.5, 1.5) rounds half up into it.
        # Round half to even sends 0.5 to 0, truncation sends 0.5 to 0 and
        # 1.5 to 1, and floor(x + 0.5) sends the float below 0.5 to 1
        dist = validate({0: 1.0})
        for verdict, estimates in HALF_UP_VERDICTS.items():
            for estimate in estimates:
                assert check_band(estimate, dist, 0.2, 0.2, None, "unicriterion") is verdict
        # bicriteria judges the estimate itself
        assert check_band(0.5, dist, 0.2, 0.2, 0.2, "bicriteria") is False

    def test_degenerate_relaxed_level_clamps_to_one(self):
        dist = make_distribution(GeneratorSpec("uniform", n=100))
        low, high, _, relaxed = band_endpoints(dist, 0.3, 9.0, 0.1, "bicriteria")
        assert low == 1.0 and relaxed == 1

    def test_unknown_mode_rejected(self):
        # a misspelled mode is not read as unicriterion
        dist = load_distribution("zipf:n=1000,s=1.0")
        with pytest.raises(OutOfRangeError, match="'bicriterion'"):
            band_endpoints(dist, 0.2, 0.2, 0.2, "bicriterion")

    def test_band_low_never_above_band_high(self):
        dist = make_distribution(GeneratorSpec("zipf", n=500, s=1.0))
        for eps in [0.05, 0.1, 0.3, 0.6]:
            for mode in ("bicriteria", "unicriterion"):
                low, high, _, _ = band_endpoints(dist, eps, 0.2, 0.1, mode)
                assert low <= high


class TestRunExperiment:
    def test_point_mass_always_succeeds(self):
        report = run_experiment(
            small_config(dist_source="point_mass:n=1", trials=50)
        )
        assert report.success_rate == 1.0
        assert report.estimate_min == report.estimate_max == pytest.approx(1.1)
        assert all(t.success for t in report.trials)

    def test_query_accounting_matches_sample_sizes(self):
        config = small_config(trials=5)
        report = run_experiment(config)
        r_size, t_size = sample_sizes(
            EstimatorParams(config.eps, config.beta, config.gamma)
        )
        for trial in report.trials:
            assert trial.samp_queries == r_size + t_size
            assert trial.eval_queries == trial.samp_queries
        assert report.total_samp_queries == 5 * (r_size + t_size)

    def test_more_trials_form_no_more_sizes(self, monkeypatch):
        # the config reads the sizes of the plan it keeps, and the trials
        # share that plan: an experiment forms (r, t) once, however many
        # trials it runs
        calls = []
        size = estimator._ceil_sample_size

        def spied_size(*args):
            calls.append(args[0])
            return size(*args)

        monkeypatch.setattr(estimator, "_ceil_sample_size", spied_size)
        counts = []
        for trials in (1, 7):
            calls.clear()
            run_experiment(small_config(trials=trials))
            counts.append(list(calls))
        assert counts[0] == counts[1] == ["r", "t"]

    def test_records_are_ordered_and_seeded(self):
        report = run_experiment(small_config(trials=8))
        assert [t.trial for t in report.trials] == list(range(8))
        assert len({t.seed for t in report.trials}) == 8

    def test_same_seed_reproduces_records(self):
        first = run_experiment(small_config())
        second = run_experiment(small_config())
        assert strip_timing(first) == strip_timing(second)

    def test_path_out_path_writes_json(self, tmp_path):
        out = tmp_path / "report.json"
        report = run_experiment(small_config(trials=2, out_path=out, format="json"))
        on_disk = json.loads(out.read_bytes())
        assert on_disk["config"]["out_path"] == str(out)
        assert on_disk["summary"]["estimate_mean"] == report.estimate_mean

    def test_writes_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        config = small_config(trials=3, out_path=str(out), format="json")
        report = run_experiment(config)
        on_disk = json.loads(out.read_bytes())
        assert on_disk["summary"]["success_rate"] == report.success_rate
        assert len(on_disk["trials"]) == 3

    @pytest.mark.parametrize("owner, name", [(harness, "emit_report"), (os, "replace")])
    def test_failed_write_keeps_earlier_report(self, tmp_path, monkeypatch, owner, name):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report\n")

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(owner, name, fail)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(small_config(trials=2, out_path=str(out)))
        assert out.read_bytes() == b"earlier report\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_replaced_report_keeps_its_mode(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report\n")
        out.chmod(0o640)
        run_experiment(small_config(trials=2, out_path=str(out), format="json"))
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert len(json.loads(out.read_bytes())["trials"]) == 2

    def test_symlinked_report_is_written_through(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_bytes(b"earlier report\n")
        out = tmp_path / "report.json"
        out.symlink_to(real)
        run_experiment(small_config(trials=2, out_path=str(out), format="json"))
        assert out.is_symlink()
        assert len(json.loads(real.read_bytes())["trials"]) == 2
        assert sorted(os.listdir(tmp_path)) == ["real.json", "report.json"]

    def test_pipe_report_is_written_in_place(self, tmp_path):
        # stands for /dev/null or /dev/stdout: a target that is not a
        # regular file must be opened and written, never renamed over
        out = tmp_path / "pipe"
        os.mkfifo(out)
        received = []
        reader = threading.Thread(target=lambda: received.append(out.read_bytes()))
        reader.daemon = True
        reader.start()
        run_experiment(small_config(trials=2, out_path=str(out), format="json"))
        reader.join(timeout=60)
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert len(json.loads(received[0])["trials"]) == 2

    def test_success_rate_is_exact_fraction(self):
        report = run_experiment(small_config(trials=16))
        assert report.success_rate == sum(t.success for t in report.trials) / 16

    def test_uniform_1000_band_success(self):
        # 200 seeded trials at eps = beta = gamma = 0.1; the exact band is
        # [ess at 0.11, 1.1 * ess at 0.1] = [891, 991.1] for the
        # float-valued uniform(1000) table
        config = ExperimentConfig(
            dist_source="uniform:n=1000",
            eps=0.1,
            beta=0.1,
            gamma=0.1,
            mode="bicriteria",
            trials=200,
            master_seed=90210,
        )
        report = run_experiment(config)
        assert report.exact_ess_relaxed == 891
        assert report.band_high == pytest.approx(1.1 * 901, rel=1e-12)
        assert report.success_rate >= 0.60

    def test_uniform_1000_unicriterion_band_success(self):
        # 200 trials; unicriterion band is [ess at 0.24, ess at 0.2],
        # i.e. [761, 801] for the float-valued uniform(1000) table
        config = ExperimentConfig(
            dist_source="uniform:n=1000",
            eps=0.2,
            beta=0.2,
            gamma=None,
            mode="unicriterion",
            trials=200,
            master_seed=90211,
        )
        report = run_experiment(config)
        assert (report.band_low, report.band_high) == (761.0, 801.0)
        assert report.success_rate >= 0.60


class TestAliasTableBuild:
    # only a plan whose stage one draws reads the alias table: it is built
    # once, before the first trial is timed, and never on the Beta route
    @staticmethod
    def events(monkeypatch, config) -> list:
        events = []
        build, estimate = AliasTable.__init__, harness.estimate_ess

        def spied_build(table, dist):
            events.append("build")
            build(table, dist)

        def spied_estimate(oracle, params):
            events.append("trial")
            return estimate(oracle, params)

        monkeypatch.setattr(AliasTable, "__init__", spied_build)
        monkeypatch.setattr(harness, "estimate_ess", spied_estimate)
        run_experiment(config)
        return events

    def test_beta_route_input_builds_no_table(self, monkeypatch):
        # r = 22 500 draws over 2 positive runs take the Beta route
        config = small_config(dist_source="two_tier:n=1000,h=10,H=0.5,pad=5", trials=3)
        assert self.events(monkeypatch, config) == ["trial"] * 3

    def test_draw_route_input_builds_one_table_first(self, monkeypatch):
        # r = 22 500 draws over 5000 runs take the draw route
        config = small_config(dist_source="zipf:n=5000,s=1.0", trials=3)
        assert self.events(monkeypatch, config) == ["build"] + ["trial"] * 3

    def test_degenerate_plan_builds_no_table(self, monkeypatch):
        config = small_config(eps=0.9, trials=2)
        assert self.events(monkeypatch, config) == ["trial"] * 2


class TestEmitReport:
    def test_csv_single_trial_two_lines(self):
        report = run_experiment(small_config(trials=1, format="csv"))
        text = emit_report(report).decode("utf-8")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "trial,seed,estimate,raw_mean,band_low,band_high,success,"
            "samp_queries,eval_queries"
        )

    def test_json_round_trip_exact(self):
        report = run_experiment(small_config(trials=4))
        parsed = json.loads(emit_report(report))
        for got, trial in zip(parsed["trials"], report.trials):
            assert got["estimate"] == trial.estimate
            assert got["raw_mean"] == trial.raw_mean
            assert got["band_low"] == trial.band_low
            assert got["band_high"] == trial.band_high
            assert got["seed"] == trial.seed
            assert got["success"] is trial.success
        assert parsed["summary"]["estimate_mean"] == report.estimate_mean
        assert parsed["config"]["dist_source"] == "zipf:n=1000,s=1.0"

    def test_csv_bytes_identical_across_runs(self):
        first = emit_report(run_experiment(small_config(format="csv")))
        second = emit_report(run_experiment(small_config(format="csv")))
        assert first == second

    def test_json_identical_modulo_timing(self):
        reports = [run_experiment(small_config()) for _ in range(2)]
        dicts = [report_dict(r) for r in reports]
        for d in dicts:
            for trial in d["trials"]:
                trial.pop("wall_time_ns")
        assert dicts[0] == dicts[1]

    def test_csv_header_is_json_trial_keys_less_timing(self):
        report = run_experiment(small_config(trials=2, format="csv"))
        header = emit_report(report).decode("utf-8").splitlines()[0]
        as_json = dataclasses.replace(report.config, format="json")
        data = json.loads(emit_report(dataclasses.replace(report, config=as_json)))
        keys = list(data["trials"][0])
        assert header.split(",") == [k for k in keys if k not in harness._TIMING_FIELDS]
        assert "wall_time_ns" in harness._TIMING_FIELDS
        assert keys[0] == "trial"

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_estimate_is_not_written_to_json(self, bad):
        report = run_experiment(small_config(trials=2))
        first = dataclasses.replace(report.trials[0], estimate=bad)
        broken = dataclasses.replace(report, trials=(first,) + report.trials[1:])
        with pytest.raises(ValueError):
            emit_report(broken)

    def test_empty_trials_rejected_before_emit(self):
        with pytest.raises(OutOfRangeError):
            small_config(trials=0)


class TestDegenerateThroughHarness:
    def test_degenerate_trials_succeed_with_zero_queries(self):
        config = small_config(eps=0.9, trials=4)
        report = run_experiment(config)
        for trial in report.trials:
            assert trial.estimate == 1.0
            assert trial.samp_queries == 0
            assert trial.eval_queries == 0
            assert trial.success
