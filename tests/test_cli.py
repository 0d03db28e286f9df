"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
import re
import struct

import pytest

from pairbag import blas, cli, data, harness
from pairbag.cli import build_spec, load_config, main
from pairbag.data import load_manifest
from pairbag.harness import CellSummary, error_rate_improvement, load_reports_jsonl
from pairbag.optimize import TrainConfig

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

    def test_manifest_key_does_not_stop_generation(self, tmp_path, capsys):
        config = tmp_path / "manifest.ini"
        config.write_text(TINY_INI.replace("[data]\n", "[data]\nmanifest = /x/m.csv\n"))
        out = tmp_path / "data"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        assert len(load_manifest(out / "manifest.csv")) == 72

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

    def test_failed_vector_write_leaves_no_new_manifest(
        self, tmp_path, tiny_config, capsys, monkeypatch
    ):
        """manifest.csv is written last and atomically: a generate that fails
        at its 3rd vector file leaves no manifest, and an old one its bytes."""
        write_vector = data._write_vector
        calls = []

        def third_fails(path, vec):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(f"no space left writing {path.name}")
            write_vector(path, vec)

        monkeypatch.setattr(data, "_write_vector", third_fails)
        out = tmp_path / "data"
        argv = ["generate", "--config", tiny_config, "--out", str(out)]
        for old in (None, b"pre,post,label\r\nold_pre.vec,old_post.vec,0\r\n"):
            if old is not None:
                (out / "manifest.csv").write_bytes(old)
            calls.clear()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == "error: no space left writing pair000001_pre.vec\n"
            manifest = out / "manifest.csv"
            assert (manifest.read_bytes() if manifest.exists() else None) == old
            assert not list(out.glob("*.tmp"))


class TestSweep:
    def test_smoke_grid(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "results"
        assert main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(f.name for f in dataclasses.fields(CellSummary))
        assert len(lines) == 1 + 8  # 2 arms x 2 k x 2 sizes
        reports = load_reports_jsonl(out / "results.jsonl")
        assert len(reports) == 16  # 8 cells x 2 trials
        assert all(r.leakage_overlap == 0 for r in reports)
        text = capsys.readouterr().out
        assert "scratch |M|=1" in text and "transfer |M|=2" in text
        assert "scratch RMS" in text and "transfer MAD" in text
        assert "error improved" in text

    def test_single_member_lines_are_the_single_member_sweep(self, tmp_path, tiny_config):
        """The |M|=1 lines of a sweep are byte for byte a sweep over |M|=1 alone,
        so any sweep already holds the calibration-only measurement."""
        full = tmp_path / "full"
        assert main(["sweep", "--config", tiny_config, "--out", str(full)]) == 0
        single_ini = tmp_path / "single.ini"
        single_ini.write_text(TINY_INI.replace("ensemble_sizes = 1, 2", "ensemble_sizes = 1"))
        single = tmp_path / "single"
        assert main(["sweep", "--config", str(single_ini), "--out", str(single)]) == 0
        lines = (full / "results.jsonl").read_bytes().splitlines(keepends=True)
        ones = [line for line in lines if json.loads(line)["ensemble_size"] == 1]
        assert len(ones) == 8  # 2 arms x 2 k x 2 trials
        assert b"".join(ones) == (single / "results.jsonl").read_bytes()

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

    def test_one_trial_errors_before_any_training(
        self, tmp_path, tiny_config, capsys, monkeypatch
    ):
        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor for a one-trial spec")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        out = tmp_path / "out"
        argv = ["sweep", "--config", tiny_config, "--out", str(out), "--trials", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trials must be >= 2, got 1: each cell's std needs two")
        assert not out.exists()

    def test_negative_budget_errors_before_any_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor for a spec with a negative budget")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        path = tmp_path / "negative.ini"
        path.write_text(TINY_INI.replace("scratch_3 = 5", "scratch_3 = -1"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad budget scratch_3 = -1")
        assert not out.exists()

    def test_test_split_below_bin_count_errors_before_any_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor for an 11-row test split")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        path = tmp_path / "small.ini"
        path.write_text(
            TINY_INI.replace("n_pos = 12", "n_pos = 6").replace("n_neg = 60", "n_neg = 30")
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the test split holds 11 rows, fewer than the 15 calibration bins: "
            "raise test_fraction, n_pos or n_neg\n"
        )
        assert not out.exists()

    def test_failed_write_keeps_old_file_and_leaves_no_temp(
        self, tmp_path, tiny_config, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.jsonl").write_text("old")

        def failing_replace(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["sweep", "--config", tiny_config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot rename")
        assert (out / "results.jsonl").read_text() == "old"
        assert sorted(p.name for p in out.iterdir()) == ["results.jsonl"]


def _die(job):
    """A pool worker's job that kills its process."""
    os._exit(3)


class TestDeadWorker:
    def test_dead_pool_worker_is_an_error_line(
        self, tmp_path, tiny_config, capsys, monkeypatch, two_blas_threads
    ):
        monkeypatch.setattr(harness, "_worker_run", _die)
        out = tmp_path / "out"
        assert main(["sweep", "--config", tiny_config, "--out", str(out), "--workers", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a worker process died")
        assert not out.exists()
        assert blas.threads() == 2


class TestManifestErrors:
    """A bad manifest fails the sweep with an error naming the file or its rows."""

    def sweep_on(self, tmp_path, tiny_config, corrupt):
        data = tmp_path / "data"
        assert main(["generate", "--config", tiny_config, "--out", str(data)]) == 0
        manifest = data / "manifest.csv"
        manifest.write_bytes(corrupt(manifest.read_bytes()))
        config = tmp_path / "manifest.ini"
        config.write_text(TINY_INI.replace("[data]\n", f"[data]\nmanifest = {manifest}\n"))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        assert not out.exists()
        return code, manifest

    def test_non_utf8_manifest_names_file(self, tmp_path, tiny_config, capsys):
        code, manifest = self.sweep_on(
            tmp_path, tiny_config, lambda blob: blob.replace(b"pair000003", b"pair\xe900003")
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} is not UTF-8 text: ")
        assert "Traceback" not in err

    def test_repeated_pair_names_both_rows(self, tmp_path, tiny_config, capsys):
        code, _ = self.sweep_on(
            tmp_path, tiny_config, lambda blob: blob + blob.splitlines(keepends=True)[1]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest row 73: pair repeats row 1")


    def test_zero_length_vector_names_row(self, tmp_path, tiny_config, capsys):
        def empty_vector(blob):
            (tmp_path / "data" / "pair000002_post.vec").write_bytes(struct.pack("<I", 0))
            return blob

        code, _ = self.sweep_on(tmp_path, tiny_config, empty_vector)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: manifest row 3: vector file ")
        assert err[0].endswith("pair000002_post.vec holds no features")


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

    def test_non_utf8_results_names_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\xff" + b'{"trial_index": 0}\n')
        assert main(["report", "--results", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: results {path} is not UTF-8 text: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_malformed_jsonl_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"not": "a report"}\n')
        assert main(["report", "--results", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_summary_csv_is_not_an_input(self, tmp_path, tiny_config, capsys):
        """report reads trial records only; a summary CSV is a malformed one."""
        out = self.run_sweep(tmp_path, tiny_config)
        capsys.readouterr()
        summary = out / "summary.csv"
        assert main(["report", "--results", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {summary} line 1: malformed trial report: ")
        assert "Traceback" not in err

    def test_incomplete_grid_names_missing_cell(self, tmp_path, tiny_config, capsys):
        out = self.run_sweep(tmp_path, tiny_config)
        capsys.readouterr()
        results = out / "results.jsonl"

        def cell(line):
            record = json.loads(line)
            return record["arm"], record["k"], record["ensemble_size"]

        lines = results.read_text().splitlines(keepends=True)
        kept = [line for line in lines if cell(line) != ("transfer", 2, 2)]
        assert len(kept) == len(lines) - 2
        results.write_text("".join(kept))
        assert main(["report", "--results", str(results)]) == 1
        err = capsys.readouterr().err
        assert err == "error: incomplete grid: no cell (arm=transfer, k=2, ensemble_size=2)\n"

    def test_repeated_trial_records_are_an_error(self, tmp_path, tiny_config, capsys):
        """A results.jsonl with every line twice counts no trial twice."""
        out = self.run_sweep(tmp_path, tiny_config)
        capsys.readouterr()
        results = out / "results.jsonl"
        results.write_text("".join(line * 2 for line in results.read_text().splitlines(True)))
        assert main(["report", "--results", str(results)]) == 1
        err = capsys.readouterr().err
        assert err == "error: duplicate trial 0 in cell (arm=scratch, k=2, ensemble_size=1)\n"


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


def test_calibrate_is_not_a_subcommand():
    """The calibration-only run is a sweep with ensemble_sizes = 1."""
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--config", "x.ini"])
    assert exc.value.code == 2


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

    def test_separation_beyond_float32_range_fails_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        """Pretraining computes in float32, so a source past its range is one
        error line naming pretraining. (In float64 this sweep ran to the end.)"""

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        path = tmp_path / "huge.ini"
        path.write_text(TINY_INI.replace("separation = 6.0", "separation = 1e39"))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pretraining ") and err.count("\n") == 1, err
        assert "separation" in err and "noise_scale" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, prefix",
        [
            ("trials", "2.5", "[experiment] trials: "),
            ("seed", "seven", "[experiment] seed: "),
            ("k_shots", "2, three", "[experiment] k_shots: "),
            ("test_fraction", "0.3.1", "[experiment] test_fraction: "),
            ("head_hidden", "six", "[model] head_hidden: "),
            ("extractor_hidden", "6, 4.5", "[model] extractor_hidden: "),
            ("d", "", "[data] d: "),
            ("separation", "far", "[data] separation: "),
            ("scratch_3", "5.0", "[budgets] scratch_3: "),
            ("learning_rate", "fast", "[train] learning_rate: "),
        ],
    )
    def test_unparsable_value_names_its_key(
        self, tmp_path, capsys, monkeypatch, key, value, prefix
    ):
        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor for an unparsable config")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        text = TINY_INI + "[train]\nlearning_rate = 0.001\n"
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
        path = tmp_path / "unparsable.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["sweep", "generate"])
    def test_negative_seed_errors_before_any_data(
        self, tmp_path, tiny_config, capsys, monkeypatch, subcommand
    ):
        def no_data(*args):
            raise AssertionError("built data for a negative seed")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        monkeypatch.setattr(cli, "generate_synthetic", no_data)
        out = tmp_path / "out"
        argv = [subcommand, "--config", tiny_config, "--out", str(out), "--seed", "-5"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -5")
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, key, flag",
        [("sweep", "trials", "3"), ("sweep", "seed", "1"), ("generate", "seed", "1")],
    )
    def test_flag_does_not_hide_a_junk_config_value(
        self, tmp_path, capsys, monkeypatch, subcommand, key, flag
    ):
        """A flag replaces the file's value only after that has been parsed."""

        def no_data(*args):
            raise AssertionError("built data for an unparsable config")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        monkeypatch.setattr(cli, "generate_synthetic", no_data)
        path = tmp_path / "junk.ini"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = abc", TINY_INI, flags=re.M))
        out = tmp_path / "out"
        argv = [subcommand, "--config", str(path), "--out", str(out), f"--{key}", flag]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [experiment] {key}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_duplicate_budget_is_rejected(self, tmp_path, capsys, monkeypatch):
        """scratch_002 and scratch_2 name one (arm, k): a second row is an error."""

        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor for a spec with two budgets")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        path = tmp_path / "twice.ini"
        path.write_text(TINY_INI.replace("scratch_2 = 5", "scratch_2 = 5\nscratch_002 = 7"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: duplicate budget scratch_2: one per arm scratch and k=2\n"
        assert not out.exists()

    def test_more_source_tasks_than_source_pairs(self, tmp_path, capsys, monkeypatch):
        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor on fewer rows than configured")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        path = tmp_path / "tasks.ini"
        path.write_text(TINY_INI.replace("source_tasks = 4", "source_tasks = 100"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: source_tasks = 100 exceeds source_size = 32")
        assert not out.exists()

    def test_missing_section_header(self, tmp_path, capsys):
        path = tmp_path / "headless.ini"
        path.write_text("d = 3\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(TINY_INI.encode() + b"# caf\xe9\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not UTF-8 text: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_diverging_training(self, tmp_path, capsys):
        """The message names where the run diverged, also from a worker
        process, and it is the only line: numpy warns of no overflow.

        Each arm runs alone: scratch trains the whole network, transfer its head.
        """
        path = tmp_path / "diverge.ini"
        for arm in ("scratch", "transfer"):
            path.write_text(
                TINY_INI.replace("arms = scratch, transfer", f"arms = {arm}")
                + "[train]\nlearning_rate = 1e200\n"
            )
            for workers in ("1", "2"):
                out = tmp_path / f"out{workers}"
                assert main(
                    ["sweep", "--config", str(path), "--out", str(out), "--workers", workers]
                ) == 1
                err = capsys.readouterr().err
                assert err.startswith("error:") and "non-finite" in err
                assert err.count("\n") == 1, err
                for part in (f"arm {arm}", "k=2", "|M|=1", "trial 0", "member 1", "iteration"):
                    assert part in err, (workers, part, err)


def test_default_ini_is_the_default_benchmark():
    """default.ini's [train] section and TrainConfig's defaults agree."""
    assert build_spec(load_config(None)).train == TrainConfig(iterations=0)


# One changed value per key of the sections build_spec reads.
CHANGED_VALUES = {
    "d": "8",
    "n_pos": "100",
    "n_neg": "1000",
    "separation": "4.0",
    "noise_scale": "0.5",
    "manifest": "data/manifest.csv",
    "extractor_hidden": "32, 16",
    "head_hidden": "32",
    "learning_rate": "0.01",
    "alpha": "0.2",
    "adam_beta1": "0.8",
    "adam_beta2": "0.99",
    "adam_eps": "1e-7",
    "k_shots": "5",
    "ensemble_sizes": "1, 5",
    "arms": "scratch",
    "trials": "10",
    "test_fraction": "0.2",
    "seed": "1",
    "pretrain_budget": "100",
    "source_size": "500",
    "source_tasks": "8",
}
DEFAULTS = load_config(None)


@pytest.mark.parametrize(
    "section, key",
    [
        (section, key)
        for section in ("data", "model", "train", "experiment")
        for key in DEFAULTS[section]
    ],
)
def test_every_default_key_reaches_the_spec(tmp_path, section, key):
    """An overlay that changes only this key changes the spec built from it."""
    assert CHANGED_VALUES[key] != DEFAULTS[section][key]
    path = tmp_path / "one_key.ini"
    path.write_text(f"[{section}]\n{key} = {CHANGED_VALUES[key]}\n")
    assert build_spec(load_config(str(path))) != build_spec(DEFAULTS)


@pytest.mark.parametrize("subcommand", ["generate", "sweep"])
@pytest.mark.parametrize(
    "section, key",
    [
        (section, key)
        for section in DEFAULTS.sections()
        for key in list(DEFAULTS[section])[: 1 if section == "budgets" else None]
        if key != "manifest"
    ],
)
def test_junk_value_of_any_key_is_one_error_line(tmp_path, capsys, subcommand, section, key):
    """Both subcommands that read a config parse all of it, so junk in any
    key is one error line naming the key, exit 1 and nothing written."""
    path = tmp_path / "junk.ini"
    path.write_text(f"[{section}]\n{key} = abc\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # arms is a list of names, so "abc" parses and the spec rejects the name.
    want = "error: arms must " if key == "arms" else f"error: [{section}] {key}: "
    assert err.startswith(want) and err.count("\n") == 1, err
    assert not out.exists()


def test_data_section_is_parsed_when_a_manifest_is_set(tmp_path):
    path = tmp_path / "manifest.ini"
    path.write_text("[data]\nmanifest = /x/m.csv\nd = abc\n")
    with pytest.raises(ValueError, match=r"^\[data\] d: "):
        build_spec(load_config(str(path)))
