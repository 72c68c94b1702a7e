"""Command-level behavior: exit codes, determinism of emitted files, and the
sampler identities surfaced through flags."""

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import types
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from eqmatch import cli, evaluation, ndtensor as nd, training
from eqmatch.checkpoint import load_checkpoint, save_checkpoint
from eqmatch.cli import _file_digest, main
from eqmatch.config import to_dict
from eqmatch.data import read_csv, read_points
from eqmatch.sampler import BLAS_THREAD_VARS, SamplerConfig


# a flow-matching baseline: eqm whose target keeps the velocity eps - x
FLOW_MATCHING = {"objective": "eqm", "schedule": {"kind": "constant"},
                 "allow_non_equilibrium": True}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny trained run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seed": 5,
        "objective": "eqm",
        "dataset": {"kind": "gaussian-mixture"},
        "model": {"input_dim": 2, "hidden": [16, 16], "activation": "silu",
                  "init_seed": 1},
        "schedule": {"kind": "truncated", "a": 0.8, "lambda": 4.0},
        "optimizer": {"lr": 0.001},
        "train": {"steps": 150, "batch_size": 16},
        "sampler": {"method": "gd", "eta": 0.02, "steps": 30},
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    cond = dict(cfg)
    cond["model"] = {**cfg["model"], "num_classes": 8}
    (root / "cond.json").write_text(json.dumps(cond))
    (root / "cond-fm.json").write_text(json.dumps({**cond, **FLOW_MATCHING}))
    for name, out in (("cfg", "run"), ("cond", "cond"), ("cond-fm", "cond-fm")):
        assert main(["train", "--config", str(root / f"{name}.json"),
                     "--out", str(root / out)]) == 0
    return root


ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "bench" / "fixture" / "checkpoint.eqmckpt"


def ckpt(workspace):
    return str(workspace / "run" / "checkpoint.eqmckpt")


def noise_conditioned_checkpoint(workspace, tmp_path) -> str:
    """A 2-step noise-conditioned run of the workspace's config."""
    cfg = json.loads((workspace / "cfg.json").read_text())
    cfg["model"]["noise_conditioned"] = True
    cfg["train"]["steps"] = 2
    (tmp_path / "noise.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "noise.json"),
                 "--out", str(tmp_path / "noise")]) == 0
    return str(tmp_path / "noise" / "checkpoint.eqmckpt")


def ledger_rows(path) -> list[dict]:
    """The rows of the results ledger at `path`, each `aux` read as JSON."""
    return [{**row, "aux": json.loads(row["aux"])} for row in read_csv(path)]


# the rows one quality run appends on a Gaussian mixture, in order
QUALITY_METRICS = ["mmd", "mmd-null-p99", "covered-mode-fraction",
                   "in-mode-sample-fraction"]


def adaptive_checkpoint(workspace, tmp_path, **sampler) -> Path:
    """The workspace's run saved again with an adaptive sampler config."""
    ck = load_checkpoint(ckpt(workspace))
    config = replace(ck.config, sampler=SamplerConfig(method="adaptive", eta=0.02,
                                                      g_min=0.05, **sampler))
    path = tmp_path / "adaptive.eqmckpt"
    save_checkpoint(path, config, ck.model, ck.optimizer, ck.step, ck.rng_state)
    return path


class TestExitCodes:
    def test_missing_config_file(self, workspace):
        assert main(["train", "--config", str(workspace / "nope.json")]) == 1

    def test_invalid_config_contents(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"objective": "score"}))
        assert main(["train", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("payload, key", [
        ({"schedule": {"lambda": 2.0}}, "schedule.kind"),
        ([1, 2], "run config"),
        ({"model": 3}, "model"),
        ({"model": {"hidden": "abc"}}, "model.hidden"),
        # small runs, so that a config read past the error trains quickly
        ({"schedule": {"kind": "truncated", "lamda": 4.0}, "train": {"steps": 2}},
         "schedule.lamda"),
        ({"model": {"noise_conditioned": "false", "hidden": [4]}, "train": {"steps": 2}},
         "model.noise_conditioned"),
        # values out of range fail while the config is read, before a step
        ({"optimizer": {"lr": -1e-3}, "train": {"steps": 2}}, "optimizer.lr"),
        ({"optimizer": {"beta1": 1.0}, "train": {"steps": 2}}, "optimizer.beta1"),
        ({"optimizer": {"beta2": -0.5}, "train": {"steps": 2}}, "optimizer.beta2"),
        ({"optimizer": {"epsilon": 0.0}, "train": {"steps": 2}}, "optimizer.epsilon"),
        ({"optimizer": {"weight_decay": -0.1}, "train": {"steps": 2}},
         "optimizer.weight_decay"),
        ({"train": {"steps": 2, "log_every": -1}}, "train.log_every"),
        ({"train": {"steps": 4, "checkpoint_every": -3}}, "train.checkpoint_every"),
        ({"seed": -1, "train": {"steps": 2}}, "seed"),
        ({"model": {"init_seed": -2}, "train": {"steps": 2}}, "model.init_seed"),
        ({"dataset": {"kind": "memorization", "data_seed": -3}, "train": {"steps": 2}},
         "dataset.data_seed"),
        ({"dataset": {"kind": "memorization", "k": 0}, "train": {"steps": 2}},
         "dataset.k"),
        ({"dataset": {"kind": "memorization", "k": 13}, "train": {"steps": 2}},
         "dataset.k"),
        # a malformed dataset value fails when the distribution is built, at read
        ({"dataset": {"modes": []}, "train": {"steps": 2}}, "dataset: modes"),
        ({"dataset": {"kind": "uniform-box", "box": [0, "a", 0, 1]},
          "train": {"steps": 2}}, "dataset: box"),
        ({"dataset": {"kind": "uniform-box", "box": [0, None, 0, 1]},
          "train": {"steps": 2}}, "dataset: box"),
        ({"dataset": {"mode_std": {"a": 1}}, "train": {"steps": 2}}, "dataset: mode_std"),
        # a float field takes only a finite number (JSON's NaN and Infinity)
        ({"sampler": {"eta": float("nan")}, "train": {"steps": 2}}, "sampler.eta"),
        ({"optimizer": {"lr": float("inf")}, "train": {"steps": 2}}, "optimizer.lr"),
        ({"optimizer": {"weight_decay": float("inf")}, "train": {"steps": 2}},
         "optimizer.weight_decay"),
        ({"schedule": {"kind": "truncated", "lambda": float("inf")},
          "train": {"steps": 2}}, "schedule.lambda"),
        ({"schedule": {"kind": "piecewise", "b": float("nan")}, "train": {"steps": 2}},
         "schedule.b"),
        ({"schedule": {"kind": "piecewise", "b": float("inf")}, "train": {"steps": 2}},
         "schedule.b"),
        # SiLU is the only activation
        ({"model": {"activation": "relu", "hidden": [4]}, "train": {"steps": 2}},
         "model: unknown activation 'relu'"),
    ])
    def test_malformed_config_names_the_key(self, payload, key, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("suite", ["quality", "ood", "partial-noise", "nn-audit"])
    def test_eval_without_checkpoint_names_the_flag(self, suite, tmp_path, capsys):
        assert main(["eval", "--suite", suite, "--out-dir", str(tmp_path)]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_adaptive_without_g_min(self, workspace, tmp_path):
        code = main(["sample", "--checkpoint", ckpt(workspace), "--method",
                     "adaptive", "--n", "4", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_g_min_with_fixed_method(self, workspace, tmp_path):
        code = main(["sample", "--checkpoint", ckpt(workspace), "--method", "gd",
                     "--g-min", "0.5", "--n", "4", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    @pytest.mark.parametrize("flags, unread, method", [
        (["--method", "adaptive", "--g-min", "0.05", "--steps", "5"], "--steps",
         "adaptive"),
        (["--max-steps", "3"], "--max-steps", "gd"),
        (["--method", "gd", "--steps", "5", "--max-steps", "3"], "--max-steps", "gd"),
    ], ids=["steps on adaptive", "max-steps on the checkpoint's gd", "both on gd"])
    def test_a_budget_the_method_does_not_read_names_it(self, workspace, tmp_path,
                                                        capsys, flags, unread, method):
        """gd reads only --steps and adaptive only --max-steps; the other one
        would change nothing."""
        out = tmp_path / "s.csv"
        code = main(["sample", "--checkpoint", ckpt(workspace), *flags, "--n", "4",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: {unread}: the {method} method does not read it")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--eta", "nan"), ("--eta", "inf"),
                                             ("--mu", "nan")])
    def test_non_finite_sampler_flag_names_it(self, workspace, tmp_path, capsys,
                                              flag, value):
        out = tmp_path / "s.csv"
        code = main(["sample", "--checkpoint", ckpt(workspace), flag, value,
                     "--n", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and f"{flag[2:]}={value}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sample", "--method", "adaptive", "--g-min", "inf", "--n", "4"],
        ["sweep", "--axis", "g-min", "--values", "0.1,inf", "--n", "4"]],
        ids=["sample", "sweep"])
    def test_infinite_g_min_names_it(self, workspace, tmp_path, capsys, command):
        """An infinite g_min would stop every sample at step 0."""
        code = main([*command, "--checkpoint", ckpt(workspace),
                     "--out" if command[0] == "sample" else "--out-dir",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "g_min=inf" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_infinite_lambda_sweep_names_lambda(self, workspace, tmp_path, capsys):
        code = main(["sweep", "--axis", "lambda", "--values", "1,inf", "--config",
                     str(workspace / "cfg.json"), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "lambda=inf must be finite" in err
        assert "vanish" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mu_with_gd_names_mu(self, workspace, tmp_path, capsys):
        code = main(["sample", "--checkpoint", ckpt(workspace), "--method", "gd",
                     "--mu", "-0.35", "--n", "4", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, name", [
        ({"objective": "fm", "model": {"noise_conditioned": True}}, "objective 'fm'"),
        ({"objective": "uncond-fm"}, "objective 'uncond-fm'"),
        ({"sampler": {"method": "nag", "mu": 0.35}}, "sampler: unknown sampler method"),
        ({"sampler": {"method": "euler-ode"}}, "sampler: unknown sampler method"),
    ])
    def test_removed_names_fail_to_load(self, payload, name, tmp_path, capsys):
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({**payload, "train": {"steps": 2}}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("checkpoint", [None, "missing.eqmckpt"],
                             ids=["no checkpoint", "missing checkpoint"])
    def test_a_failed_eval_creates_no_directory(self, tmp_path, capsys, checkpoint):
        out = tmp_path / "out"
        flag = [] if checkpoint is None else ["--checkpoint", str(tmp_path / checkpoint)]
        assert main(["eval", "--suite", "quality", *flag, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_unreadable_path_is_an_error_not_a_traceback(self, tmp_path, capsys):
        code = main(["sample", "--checkpoint", str(tmp_path), "--n", "4",
                     "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err

    def test_resume_with_init_from_names_both(self, workspace, tmp_path, capsys):
        code = main(["train", "--resume", ckpt(workspace), "--init-from",
                     str(tmp_path / "missing.eqmckpt"), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert "--resume" in err and "--init-from" in err
        assert not (tmp_path / "run").exists()

    def test_label_on_unconditional_checkpoint(self, workspace, tmp_path):
        code = main(["sample", "--checkpoint", ckpt(workspace), "--label", "2",
                     "--n", "4", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_ood_suite_needs_energy_head(self, workspace, tmp_path):
        code = main(["eval", "--suite", "ood", "--checkpoint", ckpt(workspace),
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_compose_needs_conditional(self, workspace, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["sample", "--checkpoint", ckpt(workspace), "--label", "0",
                     "--label", "1", "--n", "4", "--out", str(out)])
        assert code == 1 and "unconditional" in capsys.readouterr().err
        assert not out.exists()

    def test_compose_label_out_of_range(self, workspace, tmp_path, capsys):
        code = main(["sample", "--checkpoint",
                     str(workspace / "cond" / "checkpoint.eqmckpt"),
                     "--label", "0", "--label", "99", "--n", "4",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 1 and "out of range" in capsys.readouterr().err

    def test_contour_plot_needs_energy_head(self, workspace, tmp_path):
        code = main(["plot", "--kind", "contour", "--checkpoint", ckpt(workspace),
                     "--out", str(tmp_path / "c.svg")])
        assert code == 1

    def test_unknown_sweep_axis_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "temperature", "--values", "1",
                  "--checkpoint", ckpt(workspace)])

    @pytest.mark.parametrize("command, product", [
        (["sample", "--n", "4", "--out"], "eta=0.02 * steps=30 = 0.6"),
        (["eval", "--suite", "quality", "--n", "64", "--out-dir"],
         "eta=0.02 * steps=30 = 0.6"),
        (["eval", "--suite", "nn-audit", "--n", "16", "--out-dir"],
         "eta=0.02 * steps=30 = 0.6"),
        (["sweep", "--axis", "eta", "--values", "0.01,0.02", "--n", "16", "--out-dir"],
         "eta=0.01 * steps=30 = 0.3"),
        # 0.02 x 50 steps covers the time; the second point, 0.02 x 30, does not
        (["sweep", "--axis", "steps", "--values", "50,30", "--n", "16", "--out-dir"],
         "eta=0.02 * steps=30 = 0.6")],
        ids=["sample", "eval", "eval nn-audit", "sweep", "sweep second value"])
    def test_a_noise_conditioned_checkpoint_needs_unit_time(self, workspace, tmp_path,
                                                            capsys, command, product):
        """The workspace's sampler (eta 0.02, 30 steps) would integrate a
        noise-conditioned model over 0.6 of its time; eta 0.1 x 10 steps
        covers it. A sweep checks every point before it writes any."""
        path = noise_conditioned_checkpoint(workspace, tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*command, str(out), "--checkpoint", path]) == 1
        err = capsys.readouterr().err
        assert "eta * steps must be 1" in err and product in err
        assert "Traceback" not in err
        assert not out.exists()  # nothing written
        assert main(["sample", "--checkpoint", path, "--n", "4", "--eta", "0.1",
                     "--steps", "10", "--out", str(tmp_path / "s.csv")]) == 0

    def test_a_noise_conditioned_baseline_is_checked_before_sampling(
            self, workspace, tmp_path, capsys, monkeypatch):
        """The partial-noise suite samples its --baseline with the checkpoint's
        sampler (eta 0.02 x 30 steps here). A noise-conditioned baseline then
        fails before anything is sampled, with a message naming it."""
        path = noise_conditioned_checkpoint(workspace, tmp_path)

        def no_sampling(*args, **kwargs):
            raise AssertionError("the suite sampled before checking --baseline")

        monkeypatch.setattr(cli, "sample", no_sampling)
        monkeypatch.setattr(evaluation, "sample", no_sampling)
        capsys.readouterr()
        assert main(["eval", "--suite", "partial-noise", "--checkpoint", ckpt(workspace),
                     "--baseline", path, "--n", "16",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "--baseline is noise-conditioned" in err
        assert "eta=0.02 * steps=30 = 0.6" in err and "Traceback" not in err


class TestNumericalFailures:
    """A run whose values overflow exits 2 with one line on stderr: the step,
    and the op and place (a layer, a parameter or the loss) of the off-tape
    pass's scan that found the NaN or Inf. No command builds a tape, on
    success or failure, and no RuntimeWarning is raised."""

    @staticmethod
    def failure(monkeypatch, capsys, argv) -> str:
        def no_tape():
            raise AssertionError("a command built a tape")

        monkeypatch.setattr(nd, "Graph", no_tape)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        return capsys.readouterr().err

    @pytest.mark.parametrize("objective, head", [("eqm", "none"), ("eqm-e", "dot")])
    def test_training_at_a_huge_learning_rate(self, monkeypatch, capsys, tmp_path,
                                              objective, head):
        """Step 0 moves only the last layer (the zero last layer stops every
        other gradient), by about lr: the output stays finite at step 1 and
        its squared error overflows."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "objective": objective, "model": {"hidden": [16, 16], "energy_kind": head},
            "optimizer": {"lr": 1e300}, "train": {"steps": 3, "batch_size": 16}}))
        err = self.failure(monkeypatch, capsys, ["train", "--config", str(cfg),
                                                 "--out", str(tmp_path / "run")])
        assert err == ("numerical failure: training aborted at step 1: non-finite "
                       "values produced by op 'reduce_leading' in the loss\n")

    def test_sampling_an_energy_head_at_a_huge_step(self, monkeypatch, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "objective": "eqm-e", "model": {"hidden": [16, 16], "energy_kind": "dot"},
            "train": {"steps": 2, "batch_size": 16}}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        err = self.failure(monkeypatch, capsys, [
            "sample", "--checkpoint", str(tmp_path / "run" / "checkpoint.eqmckpt"),
            "--n", "64", "--eta", "1e308", "--steps", "3",
            "--out", str(tmp_path / "samples.csv")])
        assert err == ("numerical failure: gradient evaluation failed at step 1: "
                       "non-finite values produced by op 'add' in layer 0's input "
                       "gradient\n")

    @pytest.mark.parametrize("n, workers", [(200, 1), (1000, 2)], indirect=["workers"],
                             ids=["200 rows", "1000 rows on two shards"])
    @pytest.mark.parametrize("flag, message", [
        ("--eta", "non-finite sampler state at step 0"),
        ("--mu", "gradient evaluation failed at step 2: non-finite values produced by "
                 "op 'constant' at the input")], ids=["eta", "mu"])
    def test_sampling_the_fixture_at_a_huge_step_or_look_ahead(
            self, monkeypatch, capsys, tmp_path, flag, message, n, workers):
        """The sampler's own step and look-ahead overflow without a warning:
        the state check, or the field's scan of its input, names the step."""
        err = self.failure(monkeypatch, capsys, [
            "sample", "--checkpoint", str(FIXTURE), "--n", str(n), flag, "1e308",
            "--steps", "3", "--out", str(tmp_path / "samples.csv")])
        assert err == f"numerical failure: {message}\n"


class TestDeterminism:
    def test_same_seed_same_sample_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--checkpoint", ckpt(workspace), "--n", "32",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_training_rerun_checkpoint_identical(self, workspace, tmp_path):
        for d in ("r1", "r2"):
            assert main(["train", "--config", str(workspace / "cfg.json"),
                         "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "r1" / "checkpoint.eqmckpt").read_bytes() == \
            (tmp_path / "r2" / "checkpoint.eqmckpt").read_bytes()

    def test_svg_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["plot", "--kind", "vector-field", "--checkpoint",
                         ckpt(workspace), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPlotFlags:
    @pytest.mark.parametrize("bounds", ["1,2", "1,1,0,1", "0,1,2,-2", "0,1,0,nan",
                                        "0,inf,0,1", "a,b,c,d", "0,1,0,1,2"])
    def test_bad_bounds_name_the_flag(self, workspace, tmp_path, capsys, bounds):
        out = tmp_path / "f.svg"
        assert main(["plot", "--kind", "vector-field", "--checkpoint", ckpt(workspace),
                     "--bounds", bounds, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --bounds") and "Traceback" not in err
        assert not out.exists()

    def test_scatter_of_non_finite_points_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text("sample_id,x0,x1\n0,inf,0.1\n")
        out = tmp_path / "s.svg"
        assert main(["plot", "--kind", "scatter", "--samples", str(bad),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_bad_grid_names_the_flag(self, workspace, tmp_path, capsys, grid):
        assert main(["plot", "--kind", "vector-field", "--checkpoint", ckpt(workspace),
                     "--grid", grid, "--out", str(tmp_path / "f.svg")]) == 1
        assert capsys.readouterr().err.startswith("error: --grid")

    def test_grid_reaches_vector_field_and_contour(self, workspace, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "f.svg"
        for flags, arrows in (([], 40 * 40), (["--grid", "5"], 25)):
            assert main(["plot", "--kind", "vector-field", "--checkpoint",
                         ckpt(workspace), "--bounds=-2,2,-1,1", *flags,
                         "--out", str(out)]) == 0
            assert out.read_text().count('<path class="arrow"') == arrows
        seen = []
        monkeypatch.setattr("eqmatch.cli.contour_svg", lambda *a, **kw: seen.append(kw))
        for flags in ([], ["--grid", "7"]):
            assert main(["plot", "--kind", "contour", "--checkpoint", ckpt(workspace),
                         *flags, "--out", str(out)]) == 0
        assert "grid" not in seen[0] and seen[1]["grid"] == 7


class TestPlotTables:
    @pytest.mark.parametrize("kind, text, problem", [
        ("gamma-curves", "gamma,model,baseline\n0.0,0.5,0.6\n0.5,0.3\n",
         "data row 2, column baseline: missing"),
        ("gamma-curves", "gamma,model\n0.0,nan\n", "data row 1, column model: 'nan' is not "
                                                    "a finite number"),
        ("gamma-curves", "gamma,model\n0.0,0.5\n0.5,inf\n",
         "data row 2, column model: 'inf' is not a finite number"),
        ("gamma-curves", "gamma,model\nabc,0.5\n",
         "data row 1, column gamma: 'abc' is not a finite number"),
        ("gamma-curves", "gamma,model\n0.0,\n",
         "data row 1, column model: '' is not a finite number"),
        ("gamma-curves", "gamma\n0.0\n0.5\n", "no curve column beside gamma"),
        ("step-hist", "sample_id,steps_used\n0,3\n1\n",
         "data row 2, column steps_used: missing"),
        ("step-hist", "sample_id,steps_used\n0,nan\n",
         "data row 1, column steps_used: 'nan' is not a finite number"),
        ("step-hist", "sample_id,steps_used\n0,3\n1,-inf\n",
         "data row 2, column steps_used: '-inf' is not a finite number"),
        ("step-hist", "sample_id,steps_used\n0,abc\n",
         "data row 1, column steps_used: 'abc' is not a finite number"),
        ("step-hist", "sample_id,steps_used\n0,\n",
         "data row 1, column steps_used: '' is not a finite number"),
    ], ids=["curves short row", "curves nan", "curves inf", "curves text", "curves empty",
            "gamma only", "steps short row", "steps nan", "steps -inf", "steps text",
            "steps empty"])
    def test_malformed_table_names_file_row_and_column(self, tmp_path, capsys, kind,
                                                       text, problem):
        table = tmp_path / "table.csv"
        table.write_text(text)
        out = tmp_path / "plot.svg"
        flag = "--curves" if kind == "gamma-curves" else "--samples"
        assert main(["plot", "--kind", kind, flag, str(table), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {table}: {problem}\n"
        assert not out.exists()


class TestSeedAndCountFlags:
    """A negative --seed, or an --n too small for the command, stops it with
    the flag's name before a checkpoint is loaded or a point sampled."""

    COMMANDS = {"sample": ["sample"],
                "quality": ["eval", "--suite", "quality"],
                "ood": ["eval", "--suite", "ood"],
                "partial-noise": ["eval", "--suite", "partial-noise", "--baseline", "b"],
                "nn-audit": ["eval", "--suite", "nn-audit"],
                "statements": ["eval", "--suite", "statements"],
                "sweep": ["sweep", "--axis", "eta", "--values", "0.01"]}

    def run(self, monkeypatch, tmp_path, name, flags):
        def no_work(*a, **kw):
            raise AssertionError("a bad --seed or --n must stop the command first")

        for target in ("load_checkpoint", "sample", "sample_noise", "draw_from"):
            monkeypatch.setattr(f"eqmatch.cli.{target}", no_work)
        out = tmp_path / "out"
        where = ["--out", str(out)] if name == "sample" else ["--out-dir", str(out)]
        checkpoint = [] if name == "statements" else ["--checkpoint", "c.eqmckpt"]
        code = main([*self.COMMANDS[name], *checkpoint, *flags, *where])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("name", ["sample", "quality", "statements", "sweep"])
    def test_negative_seed_names_the_flag(self, monkeypatch, tmp_path, capsys, name):
        assert self.run(monkeypatch, tmp_path, name, ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed: -1 must be >= 0\n"

    @pytest.mark.parametrize("name, n, least", [
        ("sample", 0, 1), ("ood", 0, 1), ("nn-audit", -3, 1), ("quality", 1, 2),
        ("partial-noise", 1, 2), ("sweep", 1, 2)])
    def test_too_small_n_names_the_flag(self, monkeypatch, tmp_path, capsys, name, n,
                                        least):
        assert self.run(monkeypatch, tmp_path, name, ["--n", str(n)]) == 1
        assert capsys.readouterr().err == f"error: --n: {n} must be >= {least}\n"

    def test_the_least_n_samples(self, workspace, tmp_path):
        assert main(["sample", "--checkpoint", ckpt(workspace), "--n", "1",
                     "--out", str(tmp_path / "one.csv")]) == 0
        assert main(["eval", "--suite", "quality", "--checkpoint", ckpt(workspace),
                     "--n", "2", "--out-dir", str(tmp_path)]) == 0


class TestSamplerIdentities:
    def test_gd_keeps_the_checkpoints_mu(self, workspace, tmp_path):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg.update(train={"steps": 5, "batch_size": 8},
                   sampler={**cfg["sampler"], "mu": 0.35})
        (tmp_path / "look.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "look.json"),
                     "--out", str(tmp_path / "look")]) == 0
        look_ckpt = str(tmp_path / "look" / "checkpoint.eqmckpt")
        outs = {}
        for name, flags in (("kept", ["--method", "gd"]), ("given", ["--mu", "0.35"]),
                            ("plain", ["--method", "gd", "--mu", "0"])):
            outs[name] = tmp_path / f"{name}.csv"
            assert main(["sample", "--checkpoint", look_ckpt, "--n", "16", "--seed", "2",
                         *flags, "--out", str(outs[name])]) == 0
        assert outs["kept"].read_bytes() == outs["given"].read_bytes()
        assert outs["kept"].read_bytes() != outs["plain"].read_bytes()


    def test_adaptive_summary_counts_points_not_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "ad.csv"
        assert main(["sample", "--checkpoint", ckpt(workspace), "--n", "40",
                     "--seed", "2", "--method", "adaptive", "--g-min", "0.05",
                     "--max-steps", "100", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        points = int(summary.split("points evaluated ")[1].rstrip(")\n"))
        rows = read_csv(out)
        steps = [int(r["steps_used"]) for r in rows]
        # the first gradient takes all 40 rows, later ones only the active rows
        assert min(steps) < max(steps) and 40 < points < 40 * (max(steps) + 1)
        assert list(rows[0]) == ["sample_id", "x0", "x1", "steps_used", "cap_reached"]

    def test_out_and_trajectory_make_their_directories(self, workspace, tmp_path):
        out, trajectory = tmp_path / "out" / "a.csv", tmp_path / "traj" / "t.csv"
        assert main(["sample", "--checkpoint", ckpt(workspace), "--n", "4", "--steps", "2",
                     "--out", str(out), "--trajectory", str(trajectory)]) == 0
        assert len(read_csv(out)) == 4 and len(read_csv(trajectory)) == 3 * 4


class TestStartCsv:
    def test_samples_file_feeds_denoising(self, workspace, tmp_path):
        """30 gd steps, written and read back, then 5 more, land where 35
        steps from the same noise land: the samples table round-trips."""
        common = ["--checkpoint", ckpt(workspace), "--n", "12", "--seed", "6"]
        first, more, once = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert main(["sample", *common, "--steps", "30", "--out", str(first)]) == 0
        assert main(["sample", "--checkpoint", ckpt(workspace), "--start-csv", str(first),
                     "--steps", "5", "--out", str(more)]) == 0
        assert main(["sample", *common, "--steps", "35", "--out", str(once)]) == 0
        assert read_points(more).tobytes() == read_points(once).tobytes()

    def test_non_finite_point_names_the_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("sample_id,x0,x1\n0,0.5,0.1\n1,nan,0.2\n")
        out = tmp_path / "s.csv"
        assert main(["sample", "--checkpoint", ckpt(workspace), "--start-csv", str(bad),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and "row 2" in err
        assert not out.exists()

    def test_table_without_points_names_the_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "steps.csv"
        bad.write_text("sample_id,steps_used\n0,3\n")
        assert main(["sample", "--checkpoint", ckpt(workspace), "--start-csv", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert str(bad) in capsys.readouterr().err


class TestResume:
    @pytest.mark.parametrize("objective,head", [("eqm", "none"), ("eqm-e", "dot")])
    def test_crash_then_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch,
                                                         objective, head):
        monkeypatch.setenv("EQMATCH_OUT", str(tmp_path / "default-out"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3, "objective": objective,
            "model": {"hidden": [8, 8], "init_seed": 1, "energy_kind": head},
            "train": {"steps": 30, "batch_size": 8, "checkpoint_every": 10}}))
        full, crashed = tmp_path / "full", tmp_path / "crashed"
        assert main(["train", "--config", str(cfg), "--out", str(full)]) == 0

        real_step_loss, calls = training.loss_and_gradients, []

        def crash_at_step_25(*args, **kwargs):
            if len(calls) == 25:
                raise RuntimeError("simulated crash at step 25")
            calls.append(None)
            return real_step_loss(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(training, "loss_and_gradients", crash_at_step_25)
            with pytest.raises(RuntimeError, match="simulated crash"):
                main(["train", "--config", str(cfg), "--out", str(crashed)])
        # the loss history holds exactly the steps before the last checkpoint
        assert [r["step"] for r in read_csv(crashed / "losses.csv")] == \
            [str(s) for s in range(20)]
        assert main(["train", "--resume", str(crashed / "ckpt-000020.eqmckpt")]) == 0
        for name in ("losses.csv", "checkpoint.eqmckpt"):
            assert (crashed / name).read_bytes() == (full / name).read_bytes()
        assert not (tmp_path / "default-out").exists()

    def test_resume_with_another_model_fails_before_any_step(self, workspace, tmp_path,
                                                             capsys, monkeypatch):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"model": {"hidden": [4]}}))
        monkeypatch.setattr(training, "loss_and_gradients", None)  # no step may run
        code = main(["train", "--resume", ckpt(workspace), "--config", str(other),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert ckpt(workspace) in err and "model.hidden" in err
        assert not (tmp_path / "run").exists()


class TestSuitesAndSweeps:
    def test_eval_fingerprints_the_checkpoint_in_blocks(self):
        """The ledger's checkpoint digest is the file's SHA-256, taken without
        a copy of the 3.2 MB file."""
        _file_digest(FIXTURE)  # first-call costs are not the digest's
        tracemalloc.start()
        try:
            got = _file_digest(FIXTURE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == hashlib.sha256(FIXTURE.read_bytes()).hexdigest()[:16]
        assert peak < 0.5 * 2**20

    def test_quality_suite_idempotent_without_force(self, workspace, tmp_path, capsys):
        args = ["eval", "--suite", "quality", "--checkpoint", ckpt(workspace),
                "--n", "128", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        ledger = (tmp_path / "results.csv").read_text()
        assert main(args) == 0
        assert (tmp_path / "results.csv").read_text() == ledger  # no-op rerun
        assert "skipping" in capsys.readouterr().out
        assert main(args + ["--force"]) == 0
        assert (tmp_path / "results.csv").read_text() != ledger

    def test_eval_rerun_skips_before_sampling(self, workspace, tmp_path, capsys,
                                               monkeypatch):
        args = ["eval", "--suite", "quality", "--checkpoint", ckpt(workspace),
                "--n", "64", "--out-dir", str(tmp_path)]
        assert main(args) == 0

        def no_sampling(*a, **kw):
            raise AssertionError("a no-op re-run must not sample")

        monkeypatch.setattr("eqmatch.cli.sample", no_sampling)
        capsys.readouterr()
        assert main(args) == 0
        assert "skipping" in capsys.readouterr().out

    def test_eval_rerun_after_a_torn_row_recomputes_once(self, tmp_path, capsys):
        """A crash while an older version appended the suite's rows left the
        first of them torn; a re-run computes the suite and writes each of
        its rows once."""
        args = ["eval", "--suite", "statements", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        ledger = tmp_path / "results.csv"
        whole = ledger.read_bytes()
        header_end = whole.index(b"\n") + 1
        ledger.write_bytes(whole[:header_end + 20])  # the first row, torn
        capsys.readouterr()
        assert main(args) == 0
        assert "skipping" not in capsys.readouterr().out
        assert ledger.read_bytes() == whole

    def test_statements_suite_all_pass(self, tmp_path):
        assert main(["eval", "--suite", "statements", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        passes = [r for r in rows if "statement3-pass" in r]
        assert len(passes) == 3 and all(",1," in r for r in passes)

    def test_ood_suite_emits_three_auroc_rows(self, tmp_path):
        cfg = {
            "seed": 2, "objective": "eqm-e",
            "dataset": {"kind": "gaussian-mixture"},
            "model": {"input_dim": 2, "hidden": [8, 8], "init_seed": 1,
                      "energy_kind": "dot"},
            "schedule": {"kind": "linear"},
            "train": {"steps": 30, "batch_size": 8},
            "sampler": {"method": "gd", "eta": 0.02, "steps": 10},
        }
        (tmp_path / "e.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "e.json"),
                     "--out", str(tmp_path / "erun")]) == 0
        assert main(["eval", "--suite", "ood", "--checkpoint",
                     str(tmp_path / "erun" / "checkpoint.eqmckpt"),
                     "--n", "64", "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "results.csv").read_text()
        assert sum(1 for line in text.splitlines() if "auroc-" in line) == 3

    def test_eta_sweep_row_count(self, workspace, tmp_path):
        """Each point appends one quality run's rows, null included."""
        assert main(["sweep", "--axis", "eta", "--values", "0.01,0.02,0.04",
                     "--checkpoint", ckpt(workspace), "--n", "64",
                     "--out-dir", str(tmp_path)]) == 0
        rows = ledger_rows(tmp_path / "results.csv")
        assert [(r["aux"]["axis"], r["aux"]["value"], r["metric"]) for r in rows] == \
            [("eta", v, m) for v in ("0.01", "0.02", "0.04") for m in QUALITY_METRICS]
        assert len({r["fingerprint"] for r in rows}) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_mu_sweep_uses_look_ahead_on_gd_checkpoint(self, workspace, tmp_path):
        assert main(["sweep", "--axis", "mu", "--values", "0.0,0.35,0.9",
                     "--checkpoint", ckpt(workspace), "--n", "64",
                     "--out-dir", str(tmp_path)]) == 0
        rows = [r for r in ledger_rows(tmp_path / "results.csv") if r["metric"] == "mmd"]
        assert [(r["aux"]["sampler"]["method"], r["aux"]["sampler"]["mu"])
                for r in rows] == [("gd", 0.0), ("gd", 0.35), ("gd", 0.9)]
        assert len({r["value"] for r in rows}) == 3

    def test_lambda_sweep_retrains(self, workspace, tmp_path):
        assert main(["sweep", "--axis", "lambda", "--values", "1,4",
                     "--config", str(workspace / "cfg.json"), "--n", "64",
                     "--out-dir", str(tmp_path)]) == 0
        rows = ledger_rows(tmp_path / "results.csv")
        assert [(r["aux"]["axis"], r["aux"]["value"]) for r in rows] == \
            [("lambda", "1")] * 4 + [("lambda", "4")] * 4
        assert len({r["fingerprint"] for r in rows}) == 2

    def test_retraining_sweep_ignores_the_configs_out_dir(self, workspace, tmp_path):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg.update(out_dir=str(tmp_path / "runs" / "base"),
                   train={"steps": 5, "batch_size": 8})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["sweep", "--axis", "lambda", "--values", "1,2",
                     "--config", str(tmp_path / "cfg.json"), "--n", "16",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
        assert (tmp_path / "sweep" / "results.csv").exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("axis, values, source, bad, kind", [
        ("steps", "5,abc", "checkpoint", "abc", "int"),
        ("steps", "2.5", "checkpoint", "2.5", "int"),
        ("eta", "0.01,fast", "checkpoint", "fast", "float"),
        ("lambda", "1,x", "config", "x", "float"),
        ("schedule", "linear,cosine", "config", "cosine", "schedule kind"),
    ])
    def test_sweep_values_are_read_before_any_work(self, workspace, tmp_path, capsys,
                                                   monkeypatch, axis, values, source,
                                                   bad, kind):
        def no_work(*a, **kw):
            raise AssertionError("a bad --values entry must stop the sweep first")

        monkeypatch.setattr("eqmatch.cli._quality_reports", no_work)
        monkeypatch.setattr("eqmatch.cli.train", no_work)
        flag = ["--checkpoint", ckpt(workspace)] if source == "checkpoint" else \
            ["--config", str(workspace / "cfg.json")]
        assert main(["sweep", "--axis", axis, "--values", values, *flag,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --values") and "Traceback" not in err
        assert f"'{bad}'" in err and kind in err and f"axis '{axis}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis, values, source, bad", [
        ("eta", "0.01,-1", "checkpoint", "-1"),
        ("mu", "0.35,-0.5", "checkpoint", "-0.5"),
        ("steps", "10,0", "checkpoint", "0"),
        ("g-min", "0.1,0", "checkpoint", "0"),
        ("lambda", "4,0", "config", "0"),
    ])
    def test_sweep_configs_are_checked_before_any_work(self, workspace, tmp_path, capsys,
                                                       monkeypatch, axis, values, source,
                                                       bad):
        """An entry that reads but that the config rejects also stops the
        sweep before the first value is sampled or trained."""
        def no_work(*a, **kw):
            raise AssertionError("an invalid --values entry must stop the sweep first")

        monkeypatch.setattr("eqmatch.cli._quality_reports", no_work)
        monkeypatch.setattr("eqmatch.cli.train", no_work)
        flag = ["--checkpoint", ckpt(workspace)] if source == "checkpoint" else \
            ["--config", str(workspace / "cfg.json")]
        assert main(["sweep", "--axis", axis, "--values", values, *flag,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --values: '{bad}' for axis '{axis}': ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_steps_sweep_of_an_adaptive_checkpoint_is_rejected(self, workspace,
                                                               tmp_path, capsys,
                                                               monkeypatch):
        """Adaptive sampling reads max_steps, so each row of a steps sweep
        would sample the same thing under another label."""
        def no_work(*a, **kw):
            raise AssertionError("an unread budget must stop the sweep first")

        path = adaptive_checkpoint(workspace, tmp_path)
        monkeypatch.setattr("eqmatch.cli._quality_reports", no_work)
        assert main(["sweep", "--axis", "steps", "--values", "5,500", "--checkpoint",
                     str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --values: '5' for axis 'steps': --steps: the "
                              "adaptive method does not read it")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis, values, source, method, budget", [
        ("eta", "0.01,0.02", "adaptive", "adaptive", ("max_steps", 40)),
        ("g-min", "0.05,0.1", "gd", "adaptive", ("max_steps", 1000)),
        ("eta", "0.01,0.02", "gd", "gd", ("steps", 30)),
    ], ids=["eta on adaptive", "g-min on gd", "eta on gd"])
    def test_sweep_rows_report_the_budget_the_method_reads(self, workspace, tmp_path,
                                                           axis, values, source, method,
                                                           budget):
        """Each row's sampler holds the budget its method reads: max_steps
        where it samples adaptively (a g-min sweep always does) and steps
        where it runs plain GD."""
        path = adaptive_checkpoint(workspace, tmp_path, max_steps=40) \
            if source == "adaptive" else ckpt(workspace)
        assert main(["sweep", "--axis", axis, "--values", values, "--checkpoint",
                     str(path), "--n", "16", "--out-dir", str(tmp_path)]) == 0
        rows = ledger_rows(tmp_path / "results.csv")
        assert [(r["aux"]["sampler"]["method"], r["aux"]["sampler"][budget[0]])
                for r in rows] == [(method, budget[1])] * 8

    def test_g_min_sweep_rows_carry_max_steps(self, workspace, tmp_path):
        """A g-min sweep of a gd checkpoint samples adaptively: every row
        holds its whole sampler, so both budgets are on it."""
        assert main(["sweep", "--axis", "g-min", "--values", "0.05,0.1", "--checkpoint",
                     ckpt(workspace), "--n", "16", "--out-dir", str(tmp_path)]) == 0
        want = [to_dict(SamplerConfig(method="adaptive", eta=0.02, steps=30, g_min=g))
                for g in (0.05, 0.1)]
        assert [r["aux"]["sampler"] for r in ledger_rows(tmp_path / "results.csv")] == \
            [w for w in want for _ in QUALITY_METRICS]
        assert all(w["max_steps"] == 1000 for w in want)

    @pytest.mark.parametrize("axis, values, rerun, source", [
        ("eta", "0.02,0.01", "0.01,0.020,0.02", "checkpoint"),
        ("lambda", "1,4", "4,1.0,1", "config")])
    def test_a_finished_sweep_reruns_as_a_no_op(self, workspace, tmp_path, capsys,
                                                monkeypatch, axis, values, rerun, source):
        """A re-run skips every point before it samples or trains, and so
        does an entry that repeats a point's value."""
        flag = ["--checkpoint", ckpt(workspace)] if source == "checkpoint" else \
            ["--config", str(workspace / "cfg.json")]
        args = ["sweep", "--axis", axis, *flag, "--n", "32", "--out-dir", str(tmp_path)]
        assert main([*args, "--values", values]) == 0
        ledger = (tmp_path / "results.csv").read_bytes()

        def no_work(*a, **kw):
            raise AssertionError("a finished point must be skipped")

        for target in ("_quality_reports", "train", "sample"):
            monkeypatch.setattr(f"eqmatch.cli.{target}", no_work)
        capsys.readouterr()
        assert main([*args, "--values", rerun]) == 0
        assert (tmp_path / "results.csv").read_bytes() == ledger
        assert capsys.readouterr().out.count("skipping") == 3

    def test_an_interrupted_sweep_resumes(self, workspace, tmp_path, monkeypatch):
        """A crash at the second point keeps the first point's rows; the
        re-run computes only the points that are missing, and ends with
        the ledger of an uninterrupted sweep."""
        def args(out):
            return ["sweep", "--axis", "eta", "--values", "0.01,0.02,0.04", "--checkpoint",
                    ckpt(workspace), "--n", "32", "--out-dir", str(tmp_path / out)]

        assert main(args("whole")) == 0
        real, computed = cli._quality_reports, []

        def crash_at_the_second_point(config, *a, **kw):
            if len(computed) == 1:
                raise RuntimeError("simulated crash at the second point")
            computed.append(config.sampler.eta)
            return real(config, *a, **kw)

        monkeypatch.setattr(cli, "_quality_reports", crash_at_the_second_point)
        with pytest.raises(RuntimeError, match="simulated crash"):
            main(args("part"))
        assert len(read_csv(tmp_path / "part" / "results.csv")) == len(QUALITY_METRICS)
        computed.append("resumed")
        assert main(args("part")) == 0
        assert computed == [0.01, "resumed", 0.02, 0.04]
        assert ((tmp_path / "part" / "results.csv").read_bytes()
                == (tmp_path / "whole" / "results.csv").read_bytes())

    def test_a_sweep_point_at_the_checkpoints_sampler_is_its_quality_run(
            self, workspace, tmp_path, capsys):
        """The workspace samples with eta 0.02: the sweep's point there has
        `eval --suite quality`'s fingerprint and values, so an eval after
        the sweep skips."""
        common = ["--checkpoint", ckpt(workspace), "--n", "64", "--out-dir"]
        assert main(["eval", "--suite", "quality", *common, str(tmp_path / "eval")]) == 0
        assert main(["sweep", "--axis", "eta", "--values", "0.01,0.02", *common,
                     str(tmp_path / "sweep")]) == 0
        point = [r for r in ledger_rows(tmp_path / "sweep" / "results.csv")
                 if r["aux"]["value"] == "0.02"]
        assert [(r["fingerprint"], r["metric"], r["value"]) for r in point] == \
            [(r["fingerprint"], r["metric"], r["value"])
             for r in read_csv(tmp_path / "eval" / "results.csv")]
        capsys.readouterr()
        assert main(["eval", "--suite", "quality", *common, str(tmp_path / "sweep")]) == 0
        assert "skipping" in capsys.readouterr().out

    @pytest.mark.parametrize("run", ["cond", "cond-fm"])
    def test_compose_identical_labels_half_step(self, workspace, tmp_path, run):
        cond_ckpt = str(workspace / run / "checkpoint.eqmckpt")
        single = tmp_path / "single.csv"
        double = tmp_path / "double.csv"
        assert main(["sample", "--checkpoint", cond_ckpt, "--label", "3",
                     "--n", "16", "--seed", "4", "--eta", "0.02",
                     "--out", str(single)]) == 0
        assert main(["sample", "--checkpoint", cond_ckpt, "--label", "3",
                     "--label", "3", "--n", "16", "--seed", "4", "--eta", "0.01",
                     "--out", str(double)]) == 0
        assert single.read_bytes() == double.read_bytes()

    @pytest.mark.parametrize("rows", [["0.5,0.1,0.2"], ["0.5,0.1,0.2", "0.5,0.3,0.2"],
                                      ["0.2,1e9,1e9", "0.5,1e9,1e9"]],
                             ids=["one row", "equal gammas", "flat large values"])
    def test_gamma_curves_with_one_gamma_plot_finite(self, tmp_path, rows):
        curves = tmp_path / "curves.csv"
        curves.write_text("\n".join(["gamma,model,baseline", *rows]) + "\n")
        out = tmp_path / "curves.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["plot", "--kind", "gamma-curves", "--curves", str(curves),
                         "--out", str(out)]) == 0
        svg = out.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert svg.count('<polyline class="curve"') == 2

    def test_partial_noise_suite_writes_curves(self, workspace, tmp_path):
        # baseline: a tiny unconditional velocity-matching run
        cfg = {**json.loads((workspace / "cfg.json").read_text()), **FLOW_MATCHING}
        (tmp_path / "fm.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "fm.json"),
                     "--out", str(tmp_path / "fm")]) == 0
        assert main(["eval", "--suite", "partial-noise",
                     "--checkpoint", ckpt(workspace),
                     "--baseline", str(tmp_path / "fm" / "checkpoint.eqmckpt"),
                     "--n", "96", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "partial-noise-curves.csv").read_text().splitlines()
        assert lines[0] == "gamma,model,baseline" and len(lines) == 4
        assert main(["plot", "--kind", "gamma-curves",
                     "--curves", str(tmp_path / "partial-noise-curves.csv"),
                     "--out", str(tmp_path / "curves.svg")]) == 0


# a default eqm-e run from its config file, through the command or the library,
# then the minor page faults of the whole process
TRAIN_THEN_COUNT_FAULTS = {
    "eqmatch train": """
import resource, sys
from eqmatch.cli import main
assert main(["train", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
""",
    "training.train": """
import resource, sys
from eqmatch.config import load_config
from eqmatch.training import train
train(load_config(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
""",
}

# `eqmatch sample` at n = 1000 on the benchmark's fixture (the default model)
# for a number of GD steps, then the minor page faults of the whole process
SAMPLE_THEN_COUNT_FAULTS = """
import resource, sys
from eqmatch.cli import main
assert main(["sample", "--checkpoint", sys.argv[1], "--n", "1000",
             "--steps", sys.argv[2], "--out", sys.argv[3]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


def minor_faults(script: str, *argv, blas_threads: str | None = "1") -> int:
    """The minor page faults a fresh interpreter running `script` prints, with
    `blas_threads` as OPENBLAS_NUM_THREADS, or no BLAS thread variable."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    @pytest.mark.parametrize("entry", TRAIN_THEN_COUNT_FAULTS)
    def test_training_steps_do_not_fault_their_memory_in_again(self, tmp_path, entry):
        """A default eqm-e step frees and allocates the same buffers each
        time; with the heap policy they stay mapped. Under glibc's dynamic
        thresholds each step took about 112 minor faults, or about 1600 once
        a step frees its gradients."""
        def faults(steps):
            cfg = tmp_path / f"steps-{steps}.json"
            cfg.write_text(json.dumps({"objective": "eqm-e",
                                       "model": {"energy_kind": "dot"},
                                       "train": {"steps": steps, "checkpoint_every": 0}}))
            return minor_faults(TRAIN_THEN_COUNT_FAULTS[entry], cfg,
                                tmp_path / str(steps))

        assert (faults(110) - faults(10)) / 100 < 20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    @pytest.mark.parametrize("blas_threads", [None, "1"],
                             ids=["no BLAS variable", "one BLAS thread"])
    def test_sampling_steps_do_not_fault_their_memory_in_again(self, tmp_path,
                                                               blas_threads):
        """A GD step at n = 1000 frees and allocates [1000, 256] arrays;
        `main` sets the heap policy for every command, so they stay mapped.
        Without it each step took about 1470 minor faults. With one BLAS
        thread the batch is split over a process per core, and this counts
        the faults of the one that runs `main`."""
        def faults(steps):
            return minor_faults(SAMPLE_THEN_COUNT_FAULTS, FIXTURE, steps,
                                tmp_path / f"steps-{steps}.csv",
                                blas_threads=blas_threads)

        assert (faults(110) - faults(10)) / 100 < 20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_glibc_takes_the_policy(self, monkeypatch):
        """glibc takes both values: the mmap and trim thresholds."""
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        taken = []

        def recording(param, value):
            taken.append((param, value, mallopt(param, value)))
            return taken[-1][2]

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=recording))
        assert training.set_heap_policy() is True
        assert sorted(taken) == sorted([
            (training.M_MMAP_THRESHOLD, 32 << 20, 1), (training.M_TRIM_THRESHOLD, 64 << 20, 1)])

    def test_a_refused_setting_is_reported(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=lambda param, value: int(param != training.M_TRIM_THRESHOLD)))
        assert training.set_heap_policy() is False

    @pytest.mark.parametrize("libc", ["no mallopt", "no C library"])
    def test_commands_run_where_mallopt_is_missing(self, tmp_path, monkeypatch, libc):
        def load(name):
            if libc == "no C library":
                raise OSError("no C library here")
            return types.SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", load)
        assert training.set_heap_policy() is False
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"hidden": [4]}, "train": {"steps": 2}}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "checkpoint.eqmckpt").exists()
