import os
import re
from dataclasses import replace

import numpy as np
import pytest

from eqmatch.checkpoint import CheckpointError, load_checkpoint
from eqmatch.config import (DatasetSpec, OptimizerSettings, RunConfig,
                            TrainSettings, ValidationError)
from eqmatch import ndtensor as nd
from eqmatch.data import read_csv
from eqmatch.model import ModelConfig
from eqmatch.ndtensor import NonFiniteError
from eqmatch.schedule import Schedule
from eqmatch.training import train
from test_checkpoint import read_header, rewrite_header


def run_config(**kw):
    base = dict(
        seed=11,
        objective="eqm",
        dataset=DatasetSpec(kind="gaussian-mixture"),
        model=ModelConfig(input_dim=2, hidden=(16, 16), init_seed=4),
        schedule=Schedule(kind="truncated", a=0.8, lam=4.0),
        optimizer=OptimizerSettings(lr=1e-3),
        train=TrainSettings(steps=40, batch_size=8),
    )
    base.update(kw)
    return RunConfig(**base)


def test_same_seed_reproduces_losses_and_checkpoint(tmp_path):
    r1 = train(run_config(), out_dir=tmp_path / "a")
    r2 = train(run_config(), out_dir=tmp_path / "b")
    assert np.array_equal(r1.losses, r2.losses)
    assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
    assert (tmp_path / "a" / "losses.csv").read_bytes() == \
        (tmp_path / "b" / "losses.csv").read_bytes()


def test_different_seed_diverges():
    r1 = train(run_config(seed=1))
    r2 = train(run_config(seed=2))
    assert not np.array_equal(r1.losses, r2.losses)


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = run_config(train=TrainSettings(steps=40, batch_size=8, checkpoint_every=20))
    full = train(cfg, out_dir=tmp_path / "full")
    resumed = train(resume_from=tmp_path / "full" / "ckpt-000020.eqmckpt",
                    out_dir=tmp_path / "resumed")
    assert np.array_equal(resumed.losses, full.losses[20:])
    for k in full.model.params:
        assert np.array_equal(resumed.model.params[k], full.model.params[k])


def test_resume_with_a_config_takes_its_optimizer_settings(tmp_path):
    cfg = run_config(train=TrainSettings(steps=40, batch_size=8, checkpoint_every=20))
    full = train(cfg, out_dir=tmp_path / "full")
    midway = tmp_path / "full" / "ckpt-000020.eqmckpt"
    # the same settings keep the checkpoint's moments and step count
    same = train(cfg, resume_from=midway, out_dir=tmp_path / "same")
    assert same.checkpoint_path.read_bytes() == full.checkpoint_path.read_bytes()
    faster = train(replace(cfg, optimizer=OptimizerSettings(lr=0.5)), resume_from=midway,
                   out_dir=tmp_path / "faster")
    # the first resumed loss comes before any update at the new rate
    assert faster.losses[0] == full.losses[20]
    assert not np.array_equal(faster.losses[1:], full.losses[21:])
    ck = load_checkpoint(faster.checkpoint_path)
    assert ck.optimizer.lr == ck.config.optimizer.lr == 0.5
    assert ck.optimizer.step_count == 40


def test_resume_into_the_run_directory_keeps_history(tmp_path):
    cfg = run_config(train=TrainSettings(steps=40, batch_size=8, checkpoint_every=10))
    train(cfg, out_dir=tmp_path)
    finished = {name: (tmp_path / name).read_bytes()
                for name in ("losses.csv", "checkpoint.eqmckpt")}
    # the rows from step 10 on are dropped and written again by the resume
    train(resume_from=tmp_path / "ckpt-000010.eqmckpt", out_dir=tmp_path)
    for name, data in finished.items():
        assert (tmp_path / name).read_bytes() == data


def test_resume_drops_a_row_torn_by_a_crash(tmp_path):
    cfg = run_config(train=TrainSettings(steps=20, batch_size=8, checkpoint_every=10))
    train(cfg, out_dir=tmp_path)
    losses = tmp_path / "losses.csv"
    finished = losses.read_bytes()
    # a crash while steps 10-19 were appended: the header, steps 0-9 and "1"
    # of step 10's "10,..."
    losses.write_bytes(b"".join(finished.splitlines(keepends=True)[:11]) + b"1")
    train(resume_from=tmp_path / "ckpt-000010.eqmckpt", out_dir=tmp_path)
    assert losses.read_bytes() == finished


def test_resume_of_a_finished_run_is_rejected(tmp_path):
    done = train(run_config(train=TrainSettings(steps=5, batch_size=4)), out_dir=tmp_path)
    with pytest.raises(ValidationError, match="already finished"):
        train(resume_from=done.checkpoint_path, out_dir=tmp_path)


@pytest.mark.parametrize("state", [{}, "x", {"bit_generator": "PCG64"}])
def test_resume_with_a_malformed_generator_state_is_rejected(tmp_path, state):
    train(run_config(train=TrainSettings(steps=10, batch_size=4, checkpoint_every=5)),
          out_dir=tmp_path / "run")
    source, edited = tmp_path / "run" / "ckpt-000005.eqmckpt", tmp_path / "edited.eqmckpt"
    header = read_header(source)
    header["rng_state"] = state
    rewrite_header(source, edited, header)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(edited))}: rng_state"):
        train(resume_from=edited, out_dir=tmp_path / "resumed")


def test_losses_are_on_disk_before_each_checkpoint(tmp_path, monkeypatch):
    """Each checkpoint is renamed into place only after losses.csv, holding
    every row up to its step, was fsynced."""
    fsync, rename = os.fsync, os.replace
    synced = {}  # inode -> size at its last fsync
    last_rows = []

    def recording_fsync(fd):
        fsync(fd)
        st = os.fstat(fd)
        synced[st.st_ino] = st.st_size

    def checking_replace(src, dst):
        if str(dst).endswith(".eqmckpt"):
            st = (tmp_path / "losses.csv").stat()
            assert synced.get(st.st_ino) == st.st_size
            last_rows.append(int(read_csv(tmp_path / "losses.csv")[-1]["step"]))
        rename(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", checking_replace)
    train(run_config(train=TrainSettings(steps=30, batch_size=8, checkpoint_every=10)),
          out_dir=tmp_path)
    assert last_rows == [9, 19, 29]


def test_fresh_run_replaces_stale_losses(tmp_path):
    train(run_config(), out_dir=tmp_path / "clean")
    (tmp_path / "stale").mkdir()
    (tmp_path / "stale" / "losses.csv").write_text("step,loss\n0,1\n99,2\n")
    train(run_config(), out_dir=tmp_path / "stale")
    assert (tmp_path / "stale" / "losses.csv").read_bytes() == \
        (tmp_path / "clean" / "losses.csv").read_bytes()


def test_smoke_training_reduces_loss_on_mixture():
    cfg = run_config(train=TrainSettings(steps=2000, batch_size=32),
                     model=ModelConfig(input_dim=2, hidden=(32, 32), init_seed=3))
    result = train(cfg)
    head = result.losses[:50].mean()
    tail = result.losses[-50:].mean()
    assert tail < head


def test_memorization_dataset_uses_fixed_points():
    cfg = run_config(dataset=DatasetSpec(kind="memorization", k=4, data_seed=1),
                     train=TrainSettings(steps=30, batch_size=999))
    result = train(cfg)
    assert len(result.losses) == 30


def test_warm_start_from_checkpoint(tmp_path):
    base = train(run_config(), out_dir=tmp_path / "base")
    cfg = run_config(objective="eqm-e",
                     model=ModelConfig(input_dim=2, hidden=(16, 16), init_seed=4,
                                       energy_kind="l2norm"),
                     train=TrainSettings(steps=5, batch_size=4))
    warm = train(cfg, init_from=base.checkpoint_path)
    assert len(warm.losses) == 5


def test_warm_start_architecture_mismatch(tmp_path):
    base = train(run_config(), out_dir=tmp_path / "base")
    cfg = run_config(model=ModelConfig(input_dim=2, hidden=(8, 8), init_seed=4))
    with pytest.raises(ValidationError, match="shape mismatch"):
        train(cfg, init_from=base.checkpoint_path)


def test_non_finite_loss_aborts_with_step_index():
    cfg = run_config(optimizer=OptimizerSettings(lr=1e160),
                     train=TrainSettings(steps=50, batch_size=4))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"step \d+"):
            train(cfg)


def test_invalid_config_rejected_before_training():
    cfg = run_config()
    cfg.objective = "eqm-e"  # mismatched with energy_kind none
    with pytest.raises(ValidationError):
        train(cfg)


def test_conditional_training_runs():
    cfg = run_config(model=ModelConfig(input_dim=2, hidden=(16,), init_seed=4,
                                       num_classes=8),
                     train=TrainSettings(steps=20, batch_size=16))
    result = train(cfg)
    assert "label_embed" in result.model.params


@pytest.mark.parametrize("objective,model", [
    ("eqm", ModelConfig(hidden=(16, 16))),
    ("eqm", ModelConfig(hidden=(16, 16), num_classes=8)),
    ("eqm", ModelConfig(hidden=(16, 16), noise_conditioned=True)),
    ("eqm-e", ModelConfig(hidden=(16, 16), energy_kind="dot")),
    ("eqm-e", ModelConfig(hidden=(16,), num_classes=8,
                          energy_kind="l2norm"))],
    ids=["plain", "labelled", "noise-conditioned", "eqm-e-dot", "eqm-e-labelled-l2norm"])
def test_eqm_trains_without_a_tape(monkeypatch, objective, model):
    """Both objectives, eqm and eqm-e, train off the tape."""
    def no_tape():
        raise AssertionError(f"an {objective} training step built a tape")

    monkeypatch.setattr(nd, "Graph", no_tape)
    cfg = run_config(objective=objective, model=model,
                     train=TrainSettings(steps=3, batch_size=8))
    result = train(cfg, out_dir=None)
    assert result.losses.shape == (3,) and np.all(np.isfinite(result.losses))
