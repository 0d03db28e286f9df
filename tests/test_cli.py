"""End-to-end tests for the command-line interface."""

import re

import pytest

from pairbag.cli import build_spec, load_config, main
from pairbag.data import load_manifest
from pairbag.harness import (
    SUMMARY_COLUMNS,
    default_benchmark,
    error_rate_improvement,
    load_reports_jsonl,
)

TINY_INI = """
[data]
d = 3
n_pos = 12
n_neg = 60
separation = 6.0
noise_scale = 0.5

[model]
extractor_hidden = 6, 4
head_hidden = 6

[budgets]
scratch_2 = 5
scratch_3 = 5
transfer_2 = 5
transfer_3 = 5

[experiment]
k_shots = 2, 3
ensemble_sizes = 1, 2
arms = scratch, transfer
trials = 2
test_fraction = 0.3
seed = 9
pretrain_budget = 20
source_size = 32
source_tasks = 4
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def read_tree(root):
    """Map of relative path to file bytes under a directory."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestGenerate:
    def test_writes_loadable_manifest(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
        ds = load_manifest(out / "manifest.csv")
        assert len(ds) == 72
        assert len(ds.positives) == 12 and len(ds.negatives) == 60
        assert "wrote 72 pairs" in capsys.readouterr().out

    def test_same_seed_is_byte_identical(self, tmp_path, tiny_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["generate", "--config", tiny_config, "--out", str(a)]) == 0
        assert main(["generate", "--config", tiny_config, "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_seed_flag_changes_data(self, tmp_path, tiny_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["generate", "--config", tiny_config, "--out", str(a)])
        main(["generate", "--config", tiny_config, "--out", str(b), "--seed", "7"])
        assert read_tree(a) != read_tree(b)

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\nn_neg = 0\n")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_separation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\nseparation = nan\n")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: separation must be finite")
        assert not (tmp_path / "x").exists()

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_smoke_grid(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "results"
        assert main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 1 + 8  # 2 arms x 2 k x 2 sizes
        reports = load_reports_jsonl(out / "results.jsonl")
        assert len(reports) == 16  # 8 cells x 2 trials
        assert all(r.leakage_overlap == 0 for r in reports)
        text = capsys.readouterr().out
        assert "scratch |M|=1" in text and "transfer |M|=2" in text
        assert "error improved" in text

    def test_rerun_is_byte_identical(self, tmp_path, tiny_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["sweep", "--config", tiny_config, "--out", str(a)]) == 0
        assert main(["sweep", "--config", tiny_config, "--out", str(b)]) == 0
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()

    def test_worker_count_does_not_change_outputs(self, tmp_path, tiny_config):
        a = tmp_path / "one"
        b = tmp_path / "two"
        assert main(["sweep", "--config", tiny_config, "--out", str(a), "--workers", "1"]) == 0
        assert main(["sweep", "--config", tiny_config, "--out", str(b), "--workers", "2"]) == 0
        assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_trials_flag_overrides_config(self, tmp_path, tiny_config):
        out = tmp_path / "results"
        assert main(
            ["sweep", "--config", tiny_config, "--out", str(out), "--trials", "3"]
        ) == 0
        assert len(load_reports_jsonl(out / "results.jsonl")) == 24

    def test_rejects_zero_workers(self, tiny_config):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", tiny_config, "--workers", "0"])


class TestReport:
    def run_sweep(self, tmp_path, tiny_config):
        out = tmp_path / "results"
        assert main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        return out

    def test_from_jsonl(self, tmp_path, tiny_config, capsys):
        out = self.run_sweep(tmp_path, tiny_config)
        capsys.readouterr()
        assert main(["report", "--results", str(out / "results.jsonl")]) == 0
        text = capsys.readouterr().out
        assert "scratch RMS" in text and "transfer MAD" in text
        cells = (out / "report_cells.csv").read_text()
        assert cells == (out / "summary.csv").read_text()
        improvements = (out / "report_improvements.csv").read_text().strip().splitlines()
        assert improvements[0] == "kind,arm,k,from_size,to_size,improvement"
        # 2 arms x 2 k ensemble rows plus 2 k x 2 sizes transfer rows
        assert len(improvements) == 1 + 4 + 4

    def test_csv_input_is_idempotent(self, tmp_path, tiny_config):
        """Re-rendering a report from its own cells CSV reproduces it."""
        out = self.run_sweep(tmp_path, tiny_config)
        assert main(["report", "--results", str(out / "results.jsonl")]) == 0
        first_cells = (out / "report_cells.csv").read_bytes()
        first_improvements = (out / "report_improvements.csv").read_bytes()
        second = tmp_path / "second"
        assert main(
            ["report", "--results", str(out / "report_cells.csv"), "--out", str(second)]
        ) == 0
        assert (second / "report_cells.csv").read_bytes() == first_cells
        assert (second / "report_improvements.csv").read_bytes() == first_improvements

    def test_improvements_recomputable_from_cells(self, tmp_path, tiny_config):
        """Improvement rows follow from the cell means alone."""
        out = self.run_sweep(tmp_path, tiny_config)
        assert main(["report", "--results", str(out / "results.jsonl")]) == 0
        cells = {}
        for line in (out / "report_cells.csv").read_text().strip().splitlines()[1:]:
            parts = line.split(",")
            cells[(parts[0], int(parts[1]), int(parts[2]))] = 100.0 - float(parts[3])
        for line in (out / "report_improvements.csv").read_text().strip().splitlines()[1:]:
            kind, arm, k, from_size, to_size, improvement = line.split(",")
            k = int(k)
            if kind == "ensemble":
                expected = error_rate_improvement(
                    cells[(arm, k, int(to_size))], cells[(arm, k, int(from_size))]
                )
            else:
                expected = error_rate_improvement(
                    cells[("transfer", k, int(to_size))], cells[("scratch", k, int(from_size))]
                )
            assert float(improvement) == pytest.approx(expected, abs=1e-9)

    def test_missing_results_file(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "none.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_jsonl_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"not": "a report"}\n')
        assert main(["report", "--results", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_bad_csv_header(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        path.write_text("wrong,header\n1,2\n")
        assert main(["report", "--results", str(path)]) == 1
        assert "bad header" in capsys.readouterr().err

    def test_incomplete_grid_names_missing_cell(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        rows = ["scratch,5,1", "scratch,5,5", "transfer,5,1"]
        path.write_text(
            ",".join(SUMMARY_COLUMNS) + "\n"
            + "".join(f"{row},80.0,1.0,5.0,1.0,4.0,1.0\n" for row in rows)
        )
        assert main(["report", "--results", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "arm=transfer, k=5, ensemble_size=5" in err


@pytest.mark.parametrize(
    "args",
    [
        ["report", "--results", "r.jsonl", "--workers", "2"],
        ["report", "--results", "r.jsonl", "--config", "x.ini"],
        ["report", "--results", "r.jsonl", "--seed", "1"],
        ["report", "--results", "r.jsonl", "--trials", "3"],
        ["generate", "--trials", "3"],
        ["generate", "--workers", "2"],
    ],
)
def test_subcommand_refuses_flags_it_does_not_read(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


class TestCalibrate:
    def test_smoke(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", tiny_config, "--out", str(out)]) == 0
        reports = load_reports_jsonl(out / "calibration.jsonl")
        assert all(r.ensemble_size == 1 for r in reports)
        lines = (out / "calibration.csv").read_text().strip().splitlines()
        assert lines[0] == "arm,k,mean_rms,std_rms,mean_mad,std_mad"
        assert len(lines) == 1 + 4  # 2 arms x 2 k
        assert "RMS" in capsys.readouterr().out

    def test_csv_values_match_float_repr(self, tmp_path, tiny_config):
        out = tmp_path / "cal"
        main(["calibrate", "--config", tiny_config, "--out", str(out)])
        for line in (out / "calibration.csv").read_text().strip().splitlines()[1:]:
            parts = line.split(",")
            for value in parts[2:]:
                assert repr(float(value)) == value


class TestConfigErrors:
    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("experiment", "trails = 3", "unknown key 'trails' in [experiment]"),
            ("extra", "key = 1", "unknown config section [extra]"),
            ("budgets", "baseline_5 = 10", "bad key 'baseline_5' in [budgets]"),
            ("budgets", "scratch_x = 5", "bad key 'scratch_x' in [budgets]"),
            ("DEFAULT", "seed = 1", "unknown key(s) in [DEFAULT]: seed"),
        ],
    )
    def test_unknown_section_or_key_is_rejected(
        self, tmp_path, capsys, section, line, message
    ):
        header = f"[{section}]\n"
        if header in TINY_INI:
            text = TINY_INI.replace(header, header + line + "\n")
        else:
            text = TINY_INI + header + line + "\n"
        path = tmp_path / "typo.ini"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", "inf"),
            ("adam_eps", "nan"),
            ("separation", "nan"),
            ("noise_scale", "inf"),
        ],
    )
    def test_non_finite_value_is_rejected(self, tmp_path, capsys, key, value):
        text = TINY_INI + "[train]\nlearning_rate = 0.001\nadam_eps = 1e-8\n"
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        path = tmp_path / "non_finite.ini"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite") and "Traceback" not in err

    def test_missing_section_header(self, tmp_path, capsys):
        path = tmp_path / "headless.ini"
        path.write_text("d = 3\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training(self, tmp_path, capsys):
        """The message names where the run diverged, also from a worker process."""
        path = tmp_path / "diverge.ini"
        path.write_text(TINY_INI + "[train]\nlearning_rate = 1e200\n")
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            assert main(
                ["sweep", "--config", str(path), "--out", str(out), "--workers", workers]
            ) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "non-finite" in err
            for part in ("arm scratch", "k=2", "|M|=1", "trial 0", "member 1", "iteration"):
                assert part in err, (workers, part, err)


def test_default_ini_is_the_default_benchmark():
    """default.ini and the library defaults describe one experiment."""
    assert build_spec(load_config(None)) == default_benchmark(trials=200)
