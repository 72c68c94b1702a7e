"""Acceptance tier: the paper's claims, each checked on a model trained here.

Run it with

    EQMATCH_ACCEPTANCE=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q tests/test_acceptance.py

Without EQMATCH_ACCEPTANCE=1 every test here skips, so the fast suite stays
fast. Each model is trained once per module, at desk scale (three hidden
layers of 64), from the config next to the tests that use it; each threshold
sits in the test that checks it. The thresholds were set from runs at seeds
0-3 (CHANGES.md lists the values). A claim that no seed cleared is an
xfail(strict=True) whose reason gives the values observed. Each test records
what it measured with `record_property`; add
`-o junit_family=xunit1 --junitxml=acceptance.xml` to keep the numbers.
"""

import os

import numpy as np
import pytest

from eqmatch.config import RunConfig
from eqmatch.data import (default_mixture, draw_from, fixed_memorization_set,
                          ood_sets, sample_noise)
from eqmatch.evaluation import (auroc, component_energy, grad_norm_at_data,
                                local_minima_membership, mmd, mmd_permutation_null,
                                mode_coverage, partial_noise_sweep)
from eqmatch.model import energy
from eqmatch.sampler import (ComposedField, ModelField, SamplerConfig, calibrate_g_min,
                             sample)
from eqmatch.training import train

pytestmark = pytest.mark.skipif(os.environ.get("EQMATCH_ACCEPTANCE") != "1",
                                reason="acceptance tier: set EQMATCH_ACCEPTANCE=1")

SEED = 0
N = 1000  # samples per quality measurement, and reference draws
MIXTURE = default_mixture()  # 8 modes on a circle of radius 1.5, sigma 0.3
MODE_RADIUS = 3 * MIXTURE.mode_std


def fit(objective: str, dataset: dict, steps: int, lr: float, batch_size: int,
        flow_matching: bool = False, **model):
    """Train one model on the default truncated schedule (a 0.8, lambda 4),
    or with `flow_matching` on the constant schedule, whose eqm target is the
    velocity eps - x."""
    config = RunConfig.from_dict({
        "seed": SEED, "objective": objective, "dataset": dataset,
        "schedule": {"kind": "constant"} if flow_matching else None,
        "allow_non_equilibrium": flow_matching,
        "model": {"hidden": [64, 64, 64], "init_seed": SEED, **model},
        "optimizer": {"lr": lr},
        "train": {"steps": steps, "batch_size": batch_size}})
    return train(config).model


def mixture_draws(n: int, offset: int) -> np.ndarray:
    return draw_from(MIXTURE, n, np.random.default_rng(1000 * SEED + offset))[0]


# ---------------------------------------------------------------------------
# Statements 1 and 2 on memorized data: the center+ring set of 8 points
# (of the rates and batches tried at this width, lr 1e-3 at batch 64, each
# point tiled 8 times, left the smallest gradient at the data)


@pytest.fixture(scope="module")
def memorized():
    model = fit("eqm", {"kind": "memorization", "k": 8, "data_seed": 7},
                steps=16_000, lr=1e-3, batch_size=64)
    return model, fixed_memorization_set(8, 7)


def test_statement1_gradient_vanishes_at_memorized_data(memorized, record_property):
    """The field's norm at the data is a small fraction of its norm at
    half-corrupted copies of the same points."""
    model, points = memorized
    stats = grad_norm_at_data(model, points, seed=SEED)
    ratio = stats["at_data"] / stats["at_half_corrupted"]
    record_property("at_data_mean", stats["at_data"])
    record_property("at_half_mean", stats["at_half_corrupted"])
    record_property("ratio", ratio)
    assert ratio <= 0.25


def test_statement2_descent_from_noise_ends_at_the_data(memorized, record_property):
    """Adaptive descent from standard noise (stopping at the 5th percentile
    of the gradient norm over the data) ends within 0.25 of a data point."""
    model, points = memorized
    config = SamplerConfig(method="adaptive", eta=0.01, max_steps=1000,
                           g_min=calibrate_g_min(model, points, percentile=5.0))
    membership = local_minima_membership(model, points, n_inits=512, radius=0.25,
                                         config=config, seed=SEED)
    record_property("membership", membership)
    assert membership >= 0.9


# ---------------------------------------------------------------------------
# generation on the 8-mode mixture: descent from noise with the default step
# size for the default 250 steps


@pytest.fixture(scope="module")
def mixture_eqm():
    return fit("eqm", {"kind": "gaussian-mixture"}, steps=8000, lr=1e-3,
               batch_size=64)


@pytest.fixture(scope="module")
def generated(mixture_eqm):
    """Final samples of each method from one noise batch, with the reference
    draw they are scored against."""
    x0 = sample_noise(N, 2, SEED)
    g_min = calibrate_g_min(mixture_eqm, mixture_draws(512, 1), percentile=5.0)
    configs = {"gd": SamplerConfig(eta=0.01, steps=250),
               "gd-mu-0.35": SamplerConfig(eta=0.01, mu=0.35, steps=250),
               "adaptive": SamplerConfig(method="adaptive", eta=0.01, g_min=g_min,
                                         max_steps=250)}
    runs = {name: sample(mixture_eqm, x0, cfg) for name, cfg in configs.items()}
    return runs, mixture_draws(N, 2)


METHODS = ("gd", "gd-mu-0.35", "adaptive")


@pytest.mark.parametrize("method", METHODS)
def test_generation_covers_every_mode(generated, method, record_property):
    runs, _ = generated
    covered, in_mode = mode_coverage(runs[method].final, MIXTURE.modes, MODE_RADIUS)
    record_property("covered", covered)
    record_property("in_mode", in_mode)
    assert covered == 1.0 and in_mode >= 0.95


@pytest.mark.xfail(strict=True, reason=(
    "finding: MMD is 5-13x the null p99 on seeds 0-3 (gd 0.045-0.081, gd mu 0.35 the "
    "same to 3 digits, adaptive 0.038-0.055; p99 0.006-0.010): samples drift between "
    "modes as sampling time grows, so descent never settles on the mixture"))
@pytest.mark.parametrize("method", METHODS)
def test_generation_mmd_below_permutation_null(generated, method, record_property):
    runs, reference = generated
    final = runs[method].final
    observed = mmd(final, reference)
    p99 = float(np.percentile(mmd_permutation_null(final, reference, 200, seed=SEED), 99))
    record_property("mmd", observed)
    record_property("null_p99", p99)
    assert observed <= p99


# ---------------------------------------------------------------------------
# adaptive compute: per-sample stopping, capped at the fixed budget, spends
# fewer steps than that budget without a worse MMD


def test_adaptive_compute_saves_steps_at_no_worse_mmd(generated, record_property):
    runs, reference = generated
    fixed, adaptive = runs["gd"], runs["adaptive"]
    mmd_fixed, mmd_adaptive = mmd(fixed.final, reference), mmd(adaptive.final, reference)
    mean_steps = float(adaptive.steps_used.mean())
    record_property("mean_steps", mean_steps)
    record_property("mmd_fixed", mmd_fixed)
    record_property("mmd_adaptive", mmd_adaptive)
    assert mean_steps <= 0.6 * 250
    assert mmd_adaptive <= mmd_fixed


# ---------------------------------------------------------------------------
# OOD scoring by energy: an explicit dot-energy head trained by eqm-e scores
# the three OOD sets above in-distribution points


@pytest.fixture(scope="module")
def dot_energy():
    return fit("eqm-e", {"kind": "gaussian-mixture"}, steps=3000, lr=1e-3,
               batch_size=48, energy_kind="dot")


@pytest.mark.parametrize("ood_set", ["shifted-mixture", "uniform-box", "constant"])
def test_energy_scores_ood_above_in_distribution(dot_energy, ood_set, record_property):
    scores_id = energy(dot_energy, mixture_draws(N, 3))
    scores_ood = energy(dot_energy, ood_sets(MIXTURE, N, 1000 * SEED + 4)[ood_set])
    value = auroc(scores_id, scores_ood)
    record_property("auroc", value)
    assert value >= 0.9


# ---------------------------------------------------------------------------
# composition: the sum of two class-conditional fields samples where both
# classes are likely, which neither field alone does


@pytest.fixture(scope="module")
def conditional():
    return fit("eqm", {"kind": "gaussian-mixture"}, steps=6000, lr=3e-3,
               batch_size=64, num_classes=8)


@pytest.mark.parametrize("labels", [(0, 1), (2, 3)])
def test_composed_fields_sample_both_classes(conditional, labels, record_property):
    """Adjacent modes sit 1.15 apart, so points within 3 sigma of both
    exist but are rare under either class alone. The composition score,
    the summed dot energy x.f_a(x) + x.f_b(x), is lower at composed
    samples: they are stationary points of f_a + f_b, where it is zero."""
    a, b = labels
    x0 = sample_noise(512, 2, SEED)
    config = SamplerConfig(eta=0.01, steps=250)

    def near_both(points):
        d = np.linalg.norm(points[:, None] - MIXTURE.modes[[a, b]][None], axis=2)
        return float(np.mean(np.all(d <= MODE_RADIUS, axis=1)))

    def energy_sum(points):
        return float(np.median(component_energy(conditional, points, label=a)
                               + component_energy(conditional, points, label=b)))

    composed = sample(ComposedField([ModelField(conditional, label=a),
                                     ModelField(conditional, label=b)]), x0, config).final
    singles = np.concatenate([sample(ModelField(conditional, label=k), x0, config).final
                              for k in (a, b)])
    measured = {"near_both_composed": near_both(composed),
                "near_both_single": near_both(singles),
                "energy_sum_composed": energy_sum(composed),
                "energy_sum_single": energy_sum(singles)}
    for name, value in measured.items():
        record_property(name, value)
    assert measured["near_both_composed"] >= 0.9 and measured["near_both_single"] <= 0.1
    assert measured["energy_sum_composed"] < measured["energy_sum_single"]


# ---------------------------------------------------------------------------
# partial-noise denoising (the partial-noise suite): started from held-out
# data corrupted to gamma, eqm descent ends nearer the data distribution than
# the unconditional flow-matching baseline (eqm on the constant schedule)


@pytest.fixture(scope="module")
def uncond_fm():
    return fit("eqm", {"kind": "gaussian-mixture"}, steps=8000, lr=1e-3,
               batch_size=64, flow_matching=True)


@pytest.mark.xfail(strict=True, reason=(
    "finding: on seeds 0-3 eqm ends farther from the data than uncond-fm from "
    "starts at gamma 0 and 0.5 (seed 0 MMD: eqm 0.046, 0.054, 0.054; uncond-fm "
    "0.021, 0.021, 0.048), and at 0.8 on 3 of 4 seeds"))
def test_partial_noise_denoising_beats_uncond_fm(mixture_eqm, uncond_fm, record_property):
    curves = partial_noise_sweep(ModelField(mixture_eqm), ModelField(uncond_fm),
                                 [0.0, 0.5, 0.8], SamplerConfig(eta=0.01, steps=250),
                                 mixture_draws(N, 5), mixture_draws(N, 6), seed=SEED)
    record_property("eqm", curves["model"])
    record_property("uncond_fm", curves["baseline"])
    assert all(e < f for e, f in zip(curves["model"], curves["baseline"]))
