import json

import pytest

from ess_toolkit import read_distribution
from ess_toolkit.cli import main


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
            ("no_label.json", '[{"label": 0, "prob": 1.0}, {"prob": 0}]', "JSON row 1"),
            ("list_row.json", '[[0, 0.5], [1, 0.5]]', "JSON row 0"),
        ],
    )
    def test_malformed_file_exits_2_naming_the_row(
        self, tmp_path, capsys, name, text, where
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["exact", "--dist", str(path), "--eps", "0.1"]) == 2
        assert where in capsys.readouterr().err


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
                "--jobs", "2",
            ]
        )
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["config"]["mode"] == "unicriterion"
        assert len(parsed["trials"]) == 3

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
