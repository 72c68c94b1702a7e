import hashlib
import io
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqmatch import checkpoint
from eqmatch.checkpoint import (HEADER_KEYS, OPTIMIZER_NUMBERS, TENSOR_KEYS,
                                CheckpointError, load_checkpoint, load_params_into,
                                save_checkpoint)
from eqmatch.config import (DATASET_KINDS, DatasetSpec, OptimizerSettings,
                            RunConfig, TrainSettings, ValidationError,
                            load_config, save_config)
from eqmatch.model import ModelConfig, init_model
from eqmatch.objective import OBJECTIVES
from eqmatch.optimizer import AdamW
from eqmatch.sampler import METHODS, SamplerConfig
from eqmatch.schedule import KINDS as SCHEDULE_KINDS, Schedule

README = Path(__file__).resolve().parent.parent / "README.md"
FIXTURE = README.parent / "bench" / "fixture" / "checkpoint.eqmckpt"


def tiny_config(**kw):
    base = dict(
        seed=7,
        objective="eqm",
        dataset=DatasetSpec(kind="gaussian-mixture"),
        model=ModelConfig(input_dim=2, hidden=(8, 8), init_seed=2),
        schedule=Schedule(kind="truncated", a=0.8, lam=4.0),
        optimizer=OptimizerSettings(lr=1e-3),
        train=TrainSettings(steps=10, batch_size=4),
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_dict_round_trip_exact(self):
        cfg = tiny_config()
        assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_json_file_round_trip(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "cfg.json"
        save_config(p, cfg)
        assert load_config(p).to_dict() == cfg.to_dict()

    def test_objective_model_consistency(self):
        with pytest.raises(ValidationError, match="energy"):
            tiny_config(objective="eqm-e").validate()
        with pytest.raises(ValidationError, match="implicit"):
            tiny_config(model=ModelConfig(input_dim=2, hidden=(8,),
                                          energy_kind="dot")).validate()
        # the flow-matching baseline: eqm on a noise-conditioned model
        tiny_config(model=ModelConfig(input_dim=2, hidden=(8,),
                                      noise_conditioned=True)).validate()

    def test_conditional_model_needs_labeled_dataset(self):
        cfg = tiny_config(model=ModelConfig(input_dim=2, hidden=(8,), num_classes=4),
                          dataset=DatasetSpec(kind="checkerboard"))
        with pytest.raises(ValidationError, match="labels"):
            cfg.validate()

    def test_bad_json_reports_validation_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_config(p)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValidationError, match="objective"):
            RunConfig.from_dict({**tiny_config().to_dict(), "objective": "score"})

    def test_readme_config_block_is_the_default(self):
        section = README.read_text().split("## Run config (JSON)")[1]
        block = section.split("```json")[1].split("```")[0]
        payload = json.loads(re.sub(r"//[^\n]*", "", block))
        assert RunConfig.from_dict(payload).to_dict() == RunConfig().to_dict()

    def test_missing_null_or_empty_takes_the_default(self, tmp_path):
        for i, payload in enumerate([{"train": {"steps": None}}, {"schedule": {}},
                                     {"model": None, "seed": None}]):
            p = tmp_path / f"cfg{i}.json"
            p.write_text(json.dumps(payload))
            assert load_config(p) == RunConfig.from_dict({}) == RunConfig()
        assert RunConfig().schedule == Schedule(kind="truncated", a=0.8, lam=4.0)

    def test_values_coerced_to_annotation(self):
        d = RunConfig.from_dict({"optimizer": {"lr": 1}, "train": {"steps": 5.0},
                                 "model": {"hidden": [4.0], "noise_conditioned": False},
                                 "sampler": {"method": "adaptive", "g_min": 1}}).to_dict()
        assert type(d["optimizer"]["lr"]) is float
        assert type(d["train"]["steps"]) is int
        assert d["model"]["hidden"] == [4] and type(d["model"]["hidden"][0]) is int
        assert d["model"]["noise_conditioned"] is False
        assert type(d["sampler"]["g_min"]) is float

    @pytest.mark.parametrize("payload, key", [
        ({"model": {"hidden": [8, "x"]}}, "model.hidden"),
        ({"schedule": {"kind": "linear", "lambda": 0.0}}, "schedule"),
        ({"train": {"steps": "many"}}, "train.steps"),
        ({"seed": 1e999}, "seed"),
        ({"objective": 3}, "objective"),
        ({"dataset": {"modes": 1.5}}, "dataset.modes"),
        ({"objective": "eqm", "model": {"noise_conditioned": "false"}},
         "model.noise_conditioned"),
        ({"model": {"noise_conditioned": 0}}, "model.noise_conditioned"),
        ({"allow_non_equilibrium": "true"}, "allow_non_equilibrium"),
        ({"schedule": {"kind": "truncated", "lamda": 4.0}}, "schedule.lamda"),
        ({"schedule": {"kind": "truncated", "lam": 4.0}}, "schedule.lam"),
        ({"model": {"hidden": [8], "hiden": [8]}}, "model.hiden"),
        ({"sed": 1}, "sed"),
        ({"train": {"steps": 5.7}}, "train.steps"),
        ({"train": {"batch_size": True}}, "train.batch_size"),
        ({"seed": True}, "seed"),
        ({"model": {"hidden": [8.9]}}, "model.hidden"),
        ({"sampler": {"eta": True}}, "sampler.eta"),
    ])
    def test_malformed_input_names_the_key(self, payload, key):
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)}\b"):
            RunConfig.from_dict(payload)


positive = st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def run_configs(draw) -> RunConfig:
    """Valid run configs over every objective, dataset kind, schedule kind and
    sampler method, with small models."""
    objective = draw(st.sampled_from(OBJECTIVES))
    kind = draw(st.sampled_from(DATASET_KINDS))
    n_modes = draw(st.integers(1, 4))
    modes = draw(st.none() | st.lists(st.lists(st.floats(-4, 4), min_size=2, max_size=2),
                                      min_size=n_modes, max_size=n_modes))
    if modes is None:
        n_modes = 8  # the default mixture's, which per-mode lists must match
    dataset = DatasetSpec(
        kind=kind,
        modes=modes,
        mode_std=draw(st.none() | positive | st.lists(positive, min_size=n_modes,
                                                      max_size=n_modes)),
        weights=draw(st.none() | st.just([1.0 / n_modes] * n_modes)),
        box=draw(st.none() | st.just([-1.0, 1.0, -2.0, 2.0])),
        noise_scale=draw(st.none() | positive),
        k=draw(st.integers(1, 12)), data_seed=draw(st.integers(0, 2**31)))
    model = ModelConfig(
        input_dim=draw(st.integers(1, 3)),
        hidden=tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))),
        num_classes=draw(st.integers(0, 3)) if dataset.labeled else 0,
        noise_conditioned=objective == "eqm" and draw(st.booleans()),
        energy_kind=(draw(st.sampled_from(["dot", "l2norm"])) if objective == "eqm-e"
                     else "none"),
        init_seed=draw(st.integers(0, 2**31)))
    # a is 0 or at least 1e-300, where the piecewise head slope (b - 1) / a
    # stays finite for every b drawn here
    schedule = Schedule(kind=draw(st.sampled_from(SCHEDULE_KINDS)),
                        a=draw(st.just(0.0) | st.floats(1e-300, 1.0, exclude_max=True)),
                        b=draw(st.floats(0.0, 10.0)), lam=draw(positive))
    method = draw(st.sampled_from(METHODS))
    sampler = SamplerConfig(
        method=method, eta=draw(st.floats(0.0, 1.0)),
        mu=draw(st.floats(0.0, 1.0)),
        steps=draw(st.integers(1, 500)),
        g_min=draw(positive) if method == "adaptive" else None,
        max_steps=draw(st.integers(1, 2000)))
    cfg = RunConfig(
        seed=draw(st.integers(0, 2**32)), objective=objective,
        allow_non_equilibrium=draw(st.booleans()), dataset=dataset, model=model,
        schedule=schedule,
        optimizer=OptimizerSettings(lr=draw(positive), beta1=draw(st.floats(0.0, 0.99)),
                                    beta2=draw(st.floats(0.0, 0.9999)),
                                    weight_decay=draw(st.floats(0.0, 1.0)),
                                    epsilon=draw(positive)),
        train=TrainSettings(steps=draw(st.integers(1, 10**6)),
                            batch_size=draw(st.integers(1, 512)),
                            log_every=draw(st.integers(0, 1000)),
                            checkpoint_every=draw(st.integers(0, 1000))),
        sampler=sampler, out_dir=draw(st.none() | st.text(max_size=8)))
    cfg.validate()
    return cfg


class TestConfigProperties:
    @settings(max_examples=60, deadline=None)
    @given(cfg=run_configs())
    def test_json_round_trip_is_exact(self, cfg):
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @settings(max_examples=20, deadline=None)
    @given(cfg=run_configs(), steps_trained=st.integers(0, 2))
    def test_checkpoint_save_load_save_byte_identical(self, cfg, steps_trained):
        model = init_model(cfg.model)
        opt = AdamW(lr=cfg.optimizer.lr, beta1=cfg.optimizer.beta1,
                    beta2=cfg.optimizer.beta2, weight_decay=cfg.optimizer.weight_decay,
                    epsilon=cfg.optimizer.epsilon)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(steps_trained):
            opt.step(model.params, {k: rng.standard_normal(v.shape)
                                    for k, v in model.params.items()})
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "first.eqmckpt", Path(tmp) / "again.eqmckpt"
            save_checkpoint(first, cfg, model, opt, steps_trained, rng.bit_generator.state)
            ck = load_checkpoint(first)
            save_checkpoint(again, ck.config, ck.model, ck.optimizer, ck.step,
                            ck.rng_state)
            assert ck.config == cfg
            assert again.read_bytes() == first.read_bytes()


class TestCheckpointContainer:
    def _save_one(self, tmp_path, steps_trained=3):
        cfg = tiny_config()
        model = init_model(cfg.model)
        opt = AdamW(lr=1e-3)
        rng = np.random.default_rng(0)
        for _ in range(steps_trained):
            grads = {k: rng.standard_normal(v.shape) for k, v in model.params.items()}
            opt.step(model.params, grads)
        path = tmp_path / "ck.eqmckpt"
        save_checkpoint(path, cfg, model, opt, steps_trained, rng.bit_generator.state)
        return path, cfg, model, opt

    def test_round_trip_bitwise(self, tmp_path):
        path, cfg, model, opt = self._save_one(tmp_path)
        ck = load_checkpoint(path)
        assert ck.step == 3
        assert ck.config.to_dict() == cfg.to_dict()
        for k, v in model.params.items():
            assert ck.params[k].tobytes() == v.tobytes()
        for k, v in opt.m.items():
            assert ck.optimizer.m[k].tobytes() == v.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        path, *_ = self._save_one(tmp_path)
        ck = load_checkpoint(path)
        again = tmp_path / "again.eqmckpt"
        save_checkpoint(again, ck.config, ck.model, ck.optimizer, ck.step, ck.rng_state)
        assert again.read_bytes() == path.read_bytes()

    def test_returned_digest_is_the_sha256_of_the_file(self, tmp_path):
        path, cfg, model, opt = self._save_one(tmp_path)
        raw = path.read_bytes()
        digest = save_checkpoint(tmp_path / "again.eqmckpt", cfg, model, opt, 3,
                                 load_checkpoint(path).rng_state)
        assert digest == hashlib.sha256(raw[:-32]).hexdigest()
        assert raw[-32:] == bytes.fromhex(digest)
        # the documented layout, built from copies: magic, header, data, digest
        (hlen,) = struct.unpack_from("<I", raw, 8)
        tensors = {**model.params, **{f"opt.m.{k}": b for k, b in opt.m.items()},
                   **{f"opt.v.{k}": b for k, b in opt.v.items()}}
        data = b"".join(tensors[e["name"]].tobytes() for e in read_header(path)["tensors"])
        assert raw[:-32] == raw[:12 + hlen] + data

    def test_save_leaves_no_temporary_file(self, tmp_path):
        path, *_ = self._save_one(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("failing", ["fsync", "replace", "write", "hash"])
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch,
                                                       failing):
        """`write` and `hash` fail on the first tensor, after the header went
        into the temporary file."""
        path, cfg, model, opt = self._save_one(tmp_path)
        before = path.read_bytes()
        written = []

        def fail(*args):
            written.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise OSError(f"simulated {failing} failure")

        if failing in ("fsync", "replace"):
            monkeypatch.setattr(os, failing, fail)
        elif failing == "write":
            class FailingFile(io.FileIO):
                def write(self, chunk):
                    return fail() if isinstance(chunk, np.ndarray) else super().write(chunk)

            monkeypatch.setattr(checkpoint, "open", FailingFile, raising=False)
        else:
            sha256 = hashlib.sha256

            class FailingHash:
                def __init__(self, data=b""):
                    self.sha = sha256(data)

                def update(self, chunk):
                    return fail() if isinstance(chunk, np.ndarray) else self.sha.update(chunk)

            monkeypatch.setattr(hashlib, "sha256", FailingHash)
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(path, cfg, model, opt, 4)
        # the new bytes went to a file that no *.eqmckpt glob picks up
        assert [n for n in written if n != path.name] == ["ck.eqmckpt.tmp"]
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_digest_detects_corruption(self, tmp_path):
        path, *_ = self._save_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(p)

    def test_warm_start_shape_mismatch(self, tmp_path):
        path, *_ = self._save_one(tmp_path)
        other = init_model(ModelConfig(input_dim=2, hidden=(16, 16)))
        with pytest.raises(ValidationError, match="shape mismatch"):
            load_params_into(path, other)

    def test_warm_start_name_mismatch(self, tmp_path):
        path, *_ = self._save_one(tmp_path)
        other = init_model(ModelConfig(input_dim=2, hidden=(8,)))
        with pytest.raises(ValidationError, match="do not match"):
            load_params_into(path, other)

    def test_warm_start_across_energy_kinds(self, tmp_path):
        path, cfg, model, _ = self._save_one(tmp_path)
        target = init_model(ModelConfig(input_dim=2, hidden=(8, 8), init_seed=99,
                                        energy_kind="l2norm"))
        load_params_into(path, target)
        for k in model.params:
            assert np.array_equal(target.params[k], model.params[k])

    def test_header_is_canonical_json(self, tmp_path):
        path, *_ = self._save_one(tmp_path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        header = raw[12:12 + hlen].decode()
        parsed = json.loads(header)
        assert header == json.dumps(parsed, sort_keys=True, separators=(",", ":"))


def read_header(path) -> dict:
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[12:12 + hlen])


def rewrite_header(source, target, header: dict) -> None:
    """`source` with its header replaced and its digest recomputed, so only
    the header checks stand between the edit and a load."""
    raw = source.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + hlen:-32]
    target.write_bytes(body + hashlib.sha256(body).digest())


def drop_tensors(source, target, names) -> None:
    """`source` without the tensors `names`: index entries and data, with the
    offsets laid out again and the digest recomputed."""
    raw = source.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header, data = json.loads(raw[12:12 + hlen]), raw[12 + hlen:-32]
    kept, chunks, offset = [], [], 0
    for entry in header["tensors"]:
        if entry["name"] not in names:
            chunks.append(data[entry["offset"]:entry["offset"] + entry["nbytes"]])
            kept.append(dict(entry, offset=offset))
            offset += entry["nbytes"]
    header["tensors"] = kept
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<I", len(text)) + text + b"".join(chunks)
    target.write_bytes(body + hashlib.sha256(body).digest())


def assert_same_checkpoint(got, want) -> None:
    assert got.config == want.config and got.step == want.step
    assert got.rng_state == want.rng_state
    for key in (*OPTIMIZER_NUMBERS, "step_count"):
        assert getattr(got.optimizer, key) == getattr(want.optimizer, key), key
    for mine, theirs in ((got.params, want.params), (got.optimizer.m, want.optimizer.m),
                         (got.optimizer.v, want.optimizer.v)):
        assert mine.keys() == theirs.keys()
        for k in mine:
            assert mine[k].shape == theirs[k].shape
            assert mine[k].tobytes() == theirs[k].tobytes()


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("header") / "ck.eqmckpt"
    cfg = tiny_config(model=ModelConfig(input_dim=2, hidden=(8, 8), init_seed=2,
                                        num_classes=3))
    model = init_model(cfg.model)
    opt = AdamW(lr=1e-3)
    rng = np.random.default_rng(0)
    opt.step(model.params, {k: rng.standard_normal(v.shape) for k, v in model.params.items()})
    save_checkpoint(path, cfg, model, opt, 1, rng.bit_generator.state)
    return path


def edit_tensor(header, i, key, value):
    header["tensors"][i][key] = value
    return header


class TestHeaderChecks:
    """With a recomputed digest a bad header fails with CheckpointError naming
    the file and the entry, never with numpy's or json's own error."""

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h.pop("tensors"), "lacks tensors"),
        (lambda h: h.pop("step"), "lacks step"),
        (lambda h: h.pop("rng_state"), "lacks rng_state"),
        (lambda h: edit_tensor(h, 0, "nbytes", 8), "'label_embed': nbytes 8 is not 8 x"),
        (lambda h: edit_tensor(h, 1, "offset", 10 ** 9), "'layers.0.b': offset"),
        (lambda h: edit_tensor(h, 1, "offset", 0), "'layers.0.b': offset 0"),
        (lambda h: edit_tensor(h, 0, "shape", [24]), "'label_embed': shape"),
        (lambda h: edit_tensor(h, 2, "name", h["tensors"][1]["name"]), "tensor entry 2"),
        (lambda h: edit_tensor(h, 2, "name", "layers.0.z"), "'layers.0.z'"),
        (lambda h: h["tensors"][0].pop("offset"), "tensor entry 0 needs"),
        (lambda h: h["tensors"].pop(), "data region"),
        (lambda h: h.update(step="3"), "step '3'"),
        (lambda h: h["run_config"].update(seed="x"), "run_config: seed"),
        (lambda h: h["optimizer"].pop("lr"), "optimizer"),
        (lambda h: h["run_config"].update(objective="uncond-fm"),
         "run_config: unknown objective 'uncond-fm'"),
        (lambda h: h["run_config"]["sampler"].update(method="nag"),
         "run_config: sampler: unknown sampler method 'nag'"),
        (lambda h: h["run_config"]["model"].update(activation="tanh"),
         "run_config: model: unknown activation 'tanh'"),
    ])
    def test_bad_header_raises_checkpoint_error(self, saved_checkpoint, tmp_path, edit,
                                                match):
        header = read_header(saved_checkpoint)
        edit(header)
        path = tmp_path / "edited.eqmckpt"
        rewrite_header(saved_checkpoint, path, header)
        with pytest.raises(CheckpointError, match=re.escape(match)) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key, value, want", [
        ("step_count", 2.7, "step_count 2.7 is not a count"),
        ("step_count", True, "step_count True is not a count"),
        ("step_count", -3, "step_count -3 is not a count"),
        ("step_count", "5", "step_count '5' is not a count"),
        ("lr", "1e-4", "lr '1e-4' is not a finite number"),
        ("lr", True, "lr True is not a finite number"),
        ("epsilon", float("inf"), "epsilon inf is not a finite number"),
        ("beta1", float("nan"), "beta1 nan is not a finite number"),
        ("weight_decay", 10 ** 400, "weight_decay 1000"),
        ("beta2", None, "beta2 None is not a finite number"),
    ], ids=["step 2.7", "step true", "step -3", "step '5'", "lr '1e-4'", "lr true",
            "epsilon inf", "beta1 nan", "weight_decay 1e400", "beta2 null"])
    def test_bad_optimizer_settings_raise_checkpoint_error(self, saved_checkpoint,
                                                           tmp_path, key, value, want):
        """Unchecked, float() would take true or '1e-4' as a setting, and a
        step count of 2.7, true or -3 would reach the bias corrections (-3
        makes them negative)."""
        header = read_header(saved_checkpoint)
        header["optimizer"][key] = value
        path = tmp_path / "settings.eqmckpt"
        rewrite_header(saved_checkpoint, path, header)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: optimizer: {want}")

    @pytest.mark.parametrize("dropped", [["opt.v.layers.0.w"],
                                         ["opt.m.label_embed", "opt.v.layers.2.b"],
                                         "all moments"],
                             ids=["one moment", "two moments", "all moments"])
    def test_missing_moments_raise_checkpoint_error(self, saved_checkpoint, tmp_path,
                                                    dropped):
        """After a step, every parameter's two moments must be there: a
        missing one would restart from zero on a resume."""
        names = [e["name"] for e in read_header(saved_checkpoint)["tensors"]]
        if dropped == "all moments":
            dropped = [name for name in names if name.startswith("opt.")]
        path = tmp_path / "partial.eqmckpt"
        drop_tensors(saved_checkpoint, path, dropped)
        for optimizer in (True, False):  # an inference load checks them too
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path, optimizer=optimizer)
            assert str(err.value) == (f"{path}: optimizer: step 1 lacks the moments "
                                      f"{', '.join(sorted(dropped))}")

    def test_no_moments_before_the_first_step_load(self, tmp_path):
        """A checkpoint saved before the optimizer's first step has no moments."""
        cfg = tiny_config()
        path = tmp_path / "step0.eqmckpt"
        save_checkpoint(path, cfg, init_model(cfg.model), AdamW(lr=1e-3), 0)
        ck = load_checkpoint(path)
        assert ck.optimizer.step_count == 0 and not ck.optimizer.m and not ck.optimizer.v
        again = tmp_path / "again.eqmckpt"
        save_checkpoint(again, ck.config, ck.model, ck.optimizer, ck.step, ck.rng_state)
        assert again.read_bytes() == path.read_bytes()

    def test_the_benchmark_fixture_loads_with_every_moment(self):
        ck = load_checkpoint(FIXTURE)
        assert ck.optimizer.step_count > 0
        assert ck.optimizer.m.keys() == ck.optimizer.v.keys() == ck.params.keys()

    def test_unchanged_header_loads(self, saved_checkpoint, tmp_path):
        path = tmp_path / "same.eqmckpt"
        rewrite_header(saved_checkpoint, path, read_header(saved_checkpoint))
        assert path.read_bytes() == saved_checkpoint.read_bytes()

    @staticmethod
    def assert_loads_equal_or_raises(source, header) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.eqmckpt"
            rewrite_header(source, path, header)
            try:
                got = load_checkpoint(path)
            except CheckpointError as e:
                assert str(e).startswith(f"{path}: ")
                return
        assert_same_checkpoint(got, load_checkpoint(source))

    # The two properties below edit the header's layout: its keys, the index
    # entries and their fields. The header's values (config, step, optimizer
    # settings) are the checkpoint's content, so editing them loads another
    # checkpoint by design and is not drawn here.

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_structure_edit_loads_equal_or_raises(self, saved_checkpoint, data):
        """A header key dropped, or an index entry dropped, copied or moved."""
        header = read_header(saved_checkpoint)
        index = header["tensors"]
        kind = data.draw(st.sampled_from(["drop-key", "drop-entry", "copy-entry",
                                          "move-entry"]))
        i = data.draw(st.integers(0, len(index) - 1))
        if kind == "drop-key":
            header.pop(data.draw(st.sampled_from(HEADER_KEYS)))
        elif kind == "drop-entry":
            index.pop(i)
        elif kind == "copy-entry":
            index.insert(data.draw(st.integers(0, len(index))), dict(index[i]))
        else:
            index.insert(data.draw(st.integers(0, len(index) - 1)), index.pop(i))
        self.assert_loads_equal_or_raises(saved_checkpoint, header)

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_any_field_edit_loads_equal_or_raises(self, saved_checkpoint, data):
        """One field of one index entry dropped or replaced: by a near miss,
        by another entry's value, or by a value of any JSON type."""
        header = read_header(saved_checkpoint)
        entry = data.draw(st.sampled_from(header["tensors"]))
        key = data.draw(st.sampled_from(TENSOR_KEYS))
        old = entry[key]
        # near misses: a renamed tensor still in sorted order, the same element
        # count in another shape, an offset or size a little off
        if key == "name":
            near = [old + ".x", "z"]
        elif key == "shape":
            near = [old[::-1], [math.prod(old)], old + [1]]
        else:
            near = [old + d for d in (-8, -1, 1, 8)]
        value = data.draw(st.one_of(
            st.none(),  # the field dropped
            st.sampled_from(near).map(lambda v: (v,)),
            st.sampled_from([e[key] for e in header["tensors"]]).map(lambda v: (v,)),
            st.one_of(st.integers(-2, 600), st.text(max_size=12), st.none(),
                      st.booleans(), st.floats(allow_nan=False),
                      st.lists(st.integers(-1, 40), max_size=3)).map(lambda v: (v,))))
        if value is None:
            entry.pop(key)
        else:
            entry[key] = value[0]
        self.assert_loads_equal_or_raises(saved_checkpoint, header)


def default_size_checkpoint(path):
    """The default model and both moments after one AdamW step, saved to
    `path`; returns the model, the optimizer and the tensors' bytes."""
    cfg = RunConfig()
    model = init_model(cfg.model)
    opt = AdamW(lr=1e-3)
    rng = np.random.default_rng(0)
    opt.step(model.params, {k: rng.standard_normal(v.shape)
                            for k, v in model.params.items()})
    save_checkpoint(path, cfg, model, opt, 1, rng.bit_generator.state)
    tensor_bytes = sum(b.nbytes for d in (model.params, opt.m, opt.v) for b in d.values())
    return cfg, model, opt, tensor_bytes


def traced_peak_bytes(fn):
    """fn's result and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cut_points(path) -> dict[str, int]:
    """File lengths that end inside the header, inside a tensor and inside
    the digest."""
    size = path.stat().st_size
    header_end = 12 + struct.unpack_from("<I", path.read_bytes(), 8)[0]
    return {"header": header_end - 5, "tensor": header_end + 12, "digest": size - 7}


class TestStreamedIO:
    """Saving and loading hold no copy of the file: a save streams into the
    temporary file, a load hashes the file in chunks and reads each tensor
    into its own array. The checks keep their order: digest, header, data."""

    def test_save_allocates_at_most_half_a_megabyte(self, tmp_path):
        cfg, model, opt, tensor_bytes = default_size_checkpoint(tmp_path / "first.eqmckpt")
        assert tensor_bytes > 3_000_000  # the file is about 3.2 MB
        _, peak = traced_peak_bytes(lambda: save_checkpoint(
            tmp_path / "ck.eqmckpt", cfg, model, opt, 1))
        assert peak <= 500_000

    def test_load_allocates_the_tensors_and_at_most_1_5_mb_more(self, tmp_path):
        path = tmp_path / "ck.eqmckpt"
        _, model, opt, tensor_bytes = default_size_checkpoint(path)
        ck, peak = traced_peak_bytes(lambda: load_checkpoint(path))
        assert peak <= tensor_bytes + 1_500_000
        for mine, theirs in ((ck.params, model.params), (ck.optimizer.m, opt.m),
                             (ck.optimizer.v, opt.v)):
            assert {k: v.tobytes() for k, v in mine.items()} == \
                {k: v.tobytes() for k, v in theirs.items()}

    def test_an_inference_load_skips_the_moments(self, tmp_path):
        """With optimizer=False the moments (2.1 of the 3.2 MB) are checked by
        the digest and the index but never read."""
        path = tmp_path / "ck.eqmckpt"
        _, model, opt, tensor_bytes = default_size_checkpoint(path)
        param_bytes = sum(b.nbytes for b in model.params.values())
        assert tensor_bytes - param_bytes > 2_000_000
        ck, peak = traced_peak_bytes(lambda: load_checkpoint(path, optimizer=False))
        assert peak <= param_bytes + 500_000
        assert ck.optimizer is None and ck.step == 1
        assert {k: v.tobytes() for k, v in ck.params.items()} == \
            {k: v.tobytes() for k, v in model.params.items()}

    @pytest.mark.parametrize("where", ["header", "tensor", "digest"])
    def test_a_cut_file_fails_its_digest(self, saved_checkpoint, tmp_path, where):
        raw = saved_checkpoint.read_bytes()
        path = tmp_path / "cut.eqmckpt"
        path.write_bytes(raw[:cut_points(saved_checkpoint)[where]])
        with pytest.raises(CheckpointError, match="integrity digest mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, match", [
        ("header", "runs past the data"),
        ("tensor", "the tensors cover"),
    ])
    def test_a_cut_file_with_a_fresh_digest_fails_its_header(self, saved_checkpoint,
                                                              tmp_path, where, match):
        body = saved_checkpoint.read_bytes()[:cut_points(saved_checkpoint)[where]]
        path = tmp_path / "cut.eqmckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, inside", [
        ("header", "the header"),
        ("tensor", "tensor 'label_embed'"),
    ])
    def test_a_file_cut_after_its_digest_check_raises(self, saved_checkpoint, tmp_path,
                                                      monkeypatch, where, inside):
        """The file shrinks between the digest pass and the reads after it: a
        short read raises instead of handing back a partly filled array."""
        path = tmp_path / "shrinking.eqmckpt"
        path.write_bytes(saved_checkpoint.read_bytes())
        cut = cut_points(saved_checkpoint)[where]
        sha256 = hashlib.sha256

        class CuttingHash:
            def __init__(self, data=b""):
                self.sha = sha256(data)

            def update(self, chunk):
                self.sha.update(chunk)

            def digest(self):
                os.truncate(path, cut)
                return self.sha.digest()

        monkeypatch.setattr(hashlib, "sha256", CuttingHash)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: the file ends inside {inside}"

    def test_a_flipped_byte_anywhere_fails_the_digest_first(self, saved_checkpoint,
                                                             tmp_path):
        raw = saved_checkpoint.read_bytes()
        path = tmp_path / "flipped.eqmckpt"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0x01
            path.write_bytes(flipped)
            want = "not a checkpoint file" if i < 8 else "integrity digest mismatch"
            for optimizer in (True, False):  # moment bytes too, read or skipped
                with pytest.raises(CheckpointError) as err:
                    load_checkpoint(path, optimizer=optimizer)
                assert str(err.value) == f"{path}: {want}", (i, optimizer)
