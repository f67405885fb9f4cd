import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ess_toolkit
from ess_toolkit import (
    DiscreteDistribution,
    exact_ess,
    read_distribution,
    write_distribution,
)
from ess_toolkit.cli import main


def run_argv(out, **flags):
    """``run`` arguments for a small valid bicriteria experiment."""
    options = {
        "dist": "uniform:n=10",
        "eps": "0.2",
        "beta": "0.2",
        "gamma": "0.2",
        "mode": "bicriteria",
        "trials": "2",
        "seed": "1",
        "out": str(out),
        "format": "json",
        **flags,
    }
    argv = ["run"]
    for key, value in options.items():
        argv += [f"--{key}", value]
    return argv


# distribution-file fuzzing: fields that are numbers, near-numbers or noise
_fields = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)
_csv_files = st.one_of(
    st.builds(
        lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]),
        st.sampled_from(["label,prob", "label", "prob,label", ""]),
        st.lists(st.lists(_fields, min_size=1, max_size=3), max_size=6),
    ).map(lambda text: text.encode("utf-8")),
    st.binary(max_size=40),
)
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_json_rows = st.one_of(
    st.fixed_dictionaries(
        {"label": st.integers(0, 5), "prob": st.sampled_from([0.5, 1.0]) | _json_values}
    ),
    st.fixed_dictionaries({"label": _json_values, "prob": _json_values}),
    _json_values,
)
_json_files = st.one_of(
    st.lists(_json_rows, max_size=5).map(lambda rows: json.dumps(rows).encode("utf-8")),
    _json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.binary(max_size=40),
)


class TestGen:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        assert main(["gen", "--spec", "zipf:n=50,s=1.0", "--out", str(out)]) == 0
        assert "wrote 50 elements" in capsys.readouterr().out
        assert read_distribution(out).size == 50

    def test_json_output(self, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["gen", "--spec", "uniform:n=4", "--out", str(out)]) == 0
        assert read_distribution(out).probs.tolist() == [0.25] * 4

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--spec", "nope:n=3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path_exits_1(self, tmp_path):
        out = tmp_path / "missing_dir" / "dist.csv"
        assert main(["gen", "--spec", "uniform:n=4", "--out", str(out)]) == 1

    @pytest.mark.parametrize(
        "message, shown",
        [
            ("Unable to allocate 72.8 TiB", "Unable to allocate 72.8 TiB"),
            ("", "out of memory"),
        ],
    )
    def test_memory_error_exits_1(self, tmp_path, monkeypatch, capsys, message, shown):
        # stands for numpy's _ArrayMemoryError on a huge n; nothing is allocated
        def fail(spec):
            raise MemoryError(message)

        monkeypatch.setattr("ess_toolkit.cli.make_distribution", fail)
        out = tmp_path / "dist.csv"
        huge = "uniform:n=10000000000000"
        assert main(["gen", "--spec", huge, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not out.exists()


class TestExact:
    def test_prints_ess_and_quantile(self, capsys):
        assert main(["exact", "--dist", "uniform:n=10", "--eps", "0.25"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ess=8"
        assert out[1] == "quantile_label=2"
        assert out[2] == f"quantile_prob={0.1:.17g}"

    def test_reads_generated_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        main(["gen", "--spec", "uniform:n=10", "--out", str(path)])
        assert main(["exact", "--dist", str(path), "--eps", "0.25"]) == 0
        assert "ess=8" in capsys.readouterr().out

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["exact", "--dist", str(tmp_path / "no.csv"), "--eps", "0.1"]) == 1

    def test_bad_eps_exits_2(self):
        assert main(["exact", "--dist", "uniform:n=10", "--eps", "1.5"]) == 2

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("one_column.csv", "label,prob\n0,0.5\n1\n", "CSV line 3"),
            ("hash_label.csv", "label,prob\n#0,0.5\n1,0.5\n", "CSV line 2"),
            ("after_blanks.csv", "label,prob\n0,0.5\n\n\n1,x\n", "CSV line 5"),
            ("label_2_64.csv", f"label,prob\n{2**64},1.0\n", "CSV line 2"),
            ("negative_label.csv", "label,prob\n0,0.5\n-1,0.5\n", "CSV line 3"),
            ("float_label.csv", "label,prob\n1.0,1.0\n", "CSV line 2"),
            ("underscore_label.csv", "label,prob\n1_0,1.0\n", "CSV line 2"),
            ("underscore_prob.csv", "label,prob\n1,0.5\n0,0_5\n", "CSV line 3"),
            ("minus_zero_label.csv", "label,prob\n-0,1.0\n", "CSV line 2"),
            ("wide_char.csv", "label,prob\n\U000bfad6,1.0\n", "CSV line 2"),
            ("no_label.json", '[{"label": 0, "prob": 1.0}, {"prob": 0}]', "JSON row 1"),
            ("list_row.json", '[[0, 0.5], [1, 0.5]]', "JSON row 0"),
            ("object_prob.json", '[{"label": 1, "prob": {}}]', "must be numbers"),
            (
                "bool_label.json",
                '[{"label": true, "prob": 0.5}, {"label": 2, "prob": 0.5}]',
                "JSON row 0",
            ),
            (
                "bool_prob.json",
                '[{"label": 0, "prob": 0.0}, {"label": 1, "prob": true}]',
                "JSON row 1",
            ),
            pytest.param(
                "huge_field.csv",
                'label,prob\n0,0.5\n"' + "1" * 200_000 + '",0.5\n',
                "CSV line 3",
                id="huge_field.csv",
            ),
            pytest.param(
                "open_quote.csv",
                '"label,prob\n' + "0,0.5\n" * 30_000,
                "expected CSV header",
                id="open_quote.csv",
            ),
            pytest.param(
                "deep.json",
                "[" * 100_000 + "]" * 100_000,
                "nested too deeply",
                id="deep.json",
            ),
        ],
    )
    def test_malformed_file_exits_2_naming_the_row(
        self, tmp_path, capsys, name, text, where
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) == 2
        assert where in capsys.readouterr().err

    def test_largest_label_is_read(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text(f"label,prob\n{2**64 - 1},1.0\n", encoding="utf-8")
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) == 0
        assert f"quantile_label={2**64 - 1}" in capsys.readouterr().out

    def test_scattered_labels_print_the_quantile_probability(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        rows = [(2**64 - 1, 0.4), (17, 0.1), (2**40, 0.2), (2**63 + 9, 0.3)]
        path.write_text(
            "label,prob\n" + "".join(f"{lab},{p}\n" for lab, p in rows), encoding="utf-8"
        )
        assert main(["exact", "--dist", str(path), "--eps", "0.15"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ess=3",
            f"quantile_label={2**40}",
            f"quantile_prob={0.2:.17g}",
        ]

    def test_quoted_fields_are_read(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text('"label","prob"\n"3","0.25"\n4,"0.75"\n', encoding="utf-8")
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["ess=2", "quantile_label=3"]

    def test_header_only_file_exits_2_without_warning(self, tmp_path, capsys, recwarn):
        path = tmp_path / "d.csv"
        path.write_text("label,prob\n", encoding="utf-8")
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) == 2
        assert "at least one element" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_large_written_file_reads_back_bit_exact(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        # an odd multiplier is a bijection modulo 2**64: scattered, distinct labels
        labels = rng.permutation(100_000).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        dist = DiscreteDistribution(labels, rng.dirichlet(np.ones(100_000)))
        path = tmp_path / "d.csv"
        write_distribution(dist, path)
        back = read_distribution(path)
        assert np.array_equal(back.labels, dist.labels)
        assert back.probs.view(np.uint64).tolist() == dist.probs.view(np.uint64).tolist()
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) == 0
        assert f"ess={exact_ess(dist, 0.1)}" in capsys.readouterr().out

    @settings(max_examples=200, deadline=None)
    @given(
        suffix=st.sampled_from([".csv", ".json"]),
        csv_bytes=_csv_files,
        json_bytes=_json_files,
    )
    def test_fuzzed_file_gives_an_exit_code(
        self, tmp_path_factory, suffix, csv_bytes, json_bytes
    ):
        path = tmp_path_factory.mktemp("fuzz") / f"dist{suffix}"
        path.write_bytes(csv_bytes if suffix == ".csv" else json_bytes)
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) in (0, 1, 2)


class TestRun:
    def test_full_run_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "run",
                "--dist", "point_mass:n=1",
                "--eps", "0.2",
                "--beta", "0.2",
                "--gamma", "0.2",
                "--mode", "bicriteria",
                "--trials", "5",
                "--seed", "7",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        assert "success_rate=1" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 6  # header + 5 trials

    def test_full_run_json_unicriterion(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--dist", "zipf:n=200,s=1.0",
                "--eps", "0.3",
                "--beta", "0.2",
                "--mode", "unicriterion",
                "--trials", "3",
                "--seed", "11",
                "--out", str(out),
                "--format", "json",
            ]
        )
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["config"]["mode"] == "unicriterion"
        assert len(parsed["trials"]) == 3

    def test_ignored_gamma_is_written_as_null(self, tmp_path):
        # unicriterion ignores gamma, so an infinite one is accepted and
        # must not reach the JSON report, which has no infinity
        out = tmp_path / "r.json"
        assert main(run_argv(out, mode="unicriterion", gamma="inf")) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["config"]["gamma"] is None
        assert report["config"]["mode"] == "unicriterion"

    def test_missing_gamma_in_bicriteria_exits_2(self, tmp_path):
        code = main(
            [
                "run",
                "--dist", "uniform:n=10",
                "--eps", "0.2",
                "--beta", "0.2",
                "--mode", "bicriteria",
                "--trials", "2",
                "--seed", "1",
                "--out", str(tmp_path / "r.csv"),
                "--format", "csv",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_master_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        code = main(
            [
                "run",
                "--dist", "uniform:n=10",
                "--eps", "0.2",
                "--beta", "0.2",
                "--gamma", "0.2",
                "--mode", "bicriteria",
                "--trials", "2",
                "--seed", seed,
                "--out", str(tmp_path / "r.csv"),
                "--format", "csv",
            ]
        )
        assert code == 2
        assert "master_seed" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["gamma", "beta"])
    def test_infinite_slack_exits_2(self, tmp_path, flag):
        out = tmp_path / "r.json"
        assert main(run_argv(out, **{flag: "inf"})) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_other_than_one_exits_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.json"
        assert main(run_argv(out, jobs=jobs)) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_report_in_missing_directory_names_the_report(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(run_argv(out)) == 1
        err = capsys.readouterr().err
        assert os.path.join("missing", "r.json") in err
        assert ".tmp" not in err

    def test_run_loads_no_process_pool_modules(self, tmp_path):
        # a fresh interpreter, so modules other tests imported do not count
        code = (
            "import sys\n"
            "from ess_toolkit.cli import main\n"
            f"assert main({run_argv(tmp_path / 'r.json', trials='1')!r}) == 0\n"
            "print(sorted({m.partition('.')[0] for m in sys.modules}"
            " & {'multiprocessing', 'concurrent'}))\n"
        )
        src = os.path.dirname(os.path.dirname(ess_toolkit.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_argparse_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "run",
                    "--dist", "uniform:n=10",
                    "--eps", "0.2",
                    "--beta", "0.2",
                    "--gamma", "0.2",
                    "--mode", "tricriteria",
                    "--trials", "2",
                    "--seed", "1",
                    "--out", str(tmp_path / "r.csv"),
                    "--format", "csv",
                ]
            )
        assert exc.value.code == 2
