"""Pilot 5: sigma sweep for the quality family + composition geometry."""
import time

import numpy as np

from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import ToyDistribution, default_modes, draw_from, sample_noise
from eqmatch.evaluation import component_energy, mmd, mmd_permutation_null, mode_coverage
from eqmatch.model import ModelConfig
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, compose, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train

t0 = time.time()
log = open("/tmp/pilot/log5.txt", "a", buffering=1)

def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)

for sigma in (0.1, 0.15):
    dist = ToyDistribution(mode_std=sigma)
    cfg = RunConfig(seed=201, objective="eqm",
                    dataset=DatasetSpec(kind="gaussian-mixture", mode_std=sigma),
                    model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=21),
                    schedule=SCHED, optimizer=OptimizerSettings(lr=3e-3),
                    train=TrainSettings(steps=15000, batch_size=64))
    r = train(cfg)
    say(f"sigma {sigma}: loss tail {r.losses[-100:].mean():.3f}")
    reference, _ = draw_from(dist, 1000, np.random.default_rng(9001))
    x0 = sample_noise(1000, 2, 77)
    for eta in (0.00375, 0.0075, 0.015, 0.03):
        final = sample(r.model, x0, SamplerConfig(eta=eta, steps=250)).final
        q = mmd(final, reference)
        cov, inm = mode_coverage(final, dist.modes, 3 * sigma)
        null = mmd_permutation_null(final, reference, 100, seed=3)
        say(f"  eta {eta}: mmd {q:.5f} p99 {np.percentile(null,99):.5f} cov {cov:.2f} in {inm:.3f}")
    # atom offsets: where do samples sit relative to mode centers
    final = sample(r.model, x0, SamplerConfig(eta=0.0075, steps=250)).final
    d = np.linalg.norm(final[:, None] - dist.modes[None], axis=2).min(axis=1)
    say(f"  offsets: median {np.median(d):.4f} p90 {np.percentile(d,90):.4f}")
    # adaptive
    g_min = calibrate_g_min(r.model, draw_from(dist, 512, np.random.default_rng(55))[0], 5.0)
    for pct, gm in (("p05", g_min),):
        traj = sample(ModelField(r.model), x0,
                      SamplerConfig(method="adaptive", eta=0.0075, g_min=gm, max_steps=1000))
        qa = max(0.0, mmd(traj.final, reference))
        fixed = max(0.0, mmd(sample(r.model, x0, SamplerConfig(eta=0.0075, steps=250)).final, reference))
        say(f"  adaptive {pct} g_min {gm:.4f}: fixed {fixed:.5f} adapt {qa:.5f} "
            f"NFE {traj.steps_used.sum()/(1000*250):.3f} std {traj.steps_used.std():.1f} capped {traj.cap_reached.sum()}")
    # NAG at few steps
    for eta in (0.005, 0.0075):
        for seed in (1, 2, 3):
            x0s = sample_noise(1000, 2, 700 + seed)
            gd25 = sample(r.model, x0s, SamplerConfig(eta=eta, steps=25)).final
            nag25 = sample(r.model, x0s, SamplerConfig(method="nag", eta=eta, mu=0.35, steps=25)).final
            say(f"  25st eta {eta} seed {seed}: gd {mmd(gd25, reference):.5f} nag {mmd(nag25, reference):.5f}")

say("=== conditional composition geometry ===")
for sigma in (0.25, 0.3):
    dist = ToyDistribution(mode_std=sigma)
    cfg = RunConfig(seed=501, objective="eqm",
                    dataset=DatasetSpec(kind="gaussian-mixture", mode_std=sigma),
                    model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=51,
                                      num_classes=8),
                    schedule=SCHED, optimizer=OptimizerSettings(lr=3e-3),
                    train=TrainSettings(steps=10000, batch_size=64))
    r = train(cfg)
    say(f"cond sigma {sigma}: loss tail {r.losses[-100:].mean():.3f}")
    modes = dist.modes
    x0 = sample_noise(512, 2, 606)
    for k in (0, 1):
        final = sample(ModelField(r.model, label=k), x0, SamplerConfig(eta=0.0075, steps=250)).final
        dd = np.linalg.norm(final - modes[k], axis=1)
        say(f"  label {k}: median own-mode dist {np.median(dd):.3f} in3sig {np.mean(dd<=3*sigma):.3f}")
    for la, lb in ((0, 1), (0, 2)):
        field = compose([r.model, r.model], labels=[la, lb])
        final = sample(field, x0, SamplerConfig(eta=0.0075, steps=250)).final
        da = np.linalg.norm(final - modes[la], axis=1)
        db = np.linalg.norm(final - modes[lb], axis=1)
        near = np.mean(np.minimum(da, db) <= 3 * sigma)
        esum = (component_energy(r.model, final, label=la)
                + component_energy(r.model, final, label=lb))
        s_a = sample(ModelField(r.model, label=la), x0, SamplerConfig(eta=0.0075, steps=250)).final
        s_b = sample(ModelField(r.model, label=lb), x0, SamplerConfig(eta=0.0075, steps=250)).final
        singles = np.concatenate([s_a, s_b])
        esum_single = (component_energy(r.model, singles, label=la)
                       + component_energy(r.model, singles, label=lb))
        say(f"  compose {la}+{lb}: in3sig-of-either {near:.3f} median dist pair "
            f"({np.median(da):.2f},{np.median(db):.2f}) esum {np.median(esum):.2f} "
            f"vs single {np.median(esum_single):.2f}")

say("pilot5 done")
log.close()
