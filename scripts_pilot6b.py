"""Pilot 6B: quality geometry grid (radius x truncation) at sigma=0.05."""
import time

import numpy as np

from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import ToyDistribution, default_modes, draw_from, sample_noise
from eqmatch.evaluation import mmd, mmd_permutation_null, mode_coverage
from eqmatch.model import ModelConfig
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train

t0 = time.time()
log = open("/tmp/pilot/log6b.txt", "a", buffering=1)

def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SIGMA = 0.05
for radius in (1.5, 1.8):
    for a in (0.8, 0.9):
        modes = default_modes(radius=radius)
        dist = ToyDistribution(modes=modes, mode_std=SIGMA)
        cfg = RunConfig(seed=201, objective="eqm",
                        dataset=DatasetSpec(kind="gaussian-mixture",
                                            modes=modes.tolist(), mode_std=SIGMA),
                        model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=21),
                        schedule=Schedule(kind="truncated", a=a, lam=4.0),
                        optimizer=OptimizerSettings(lr=3e-3),
                        train=TrainSettings(steps=20000, batch_size=64))
        r = train(cfg)
        reference, _ = draw_from(dist, 1000, np.random.default_rng(9001))
        x0 = sample_noise(1000, 2, 77)
        say(f"radius {radius} a {a}: loss tail {r.losses[-100:].mean():.3f}")
        for eta in (0.00375, 0.0075, 0.015):
            final = sample(r.model, x0, SamplerConfig(eta=eta, steps=250)).final
            q = mmd(final, reference)
            null = mmd_permutation_null(final, reference, 100, seed=3)
            cov, inm = mode_coverage(final, dist.modes, 3 * SIGMA)
            d = np.linalg.norm(final[:, None] - dist.modes[None], axis=2).min(axis=1)
            say(f"  eta {eta}: mmd {q:.5f} p99 {np.percentile(null, 99):.5f} cov {cov:.2f} "
                f"in {inm:.3f} offset med {np.median(d):.4f}")
        g_min = calibrate_g_min(r.model, draw_from(dist, 512, np.random.default_rng(55))[0], 5.0)
        traj = sample(ModelField(r.model), x0,
                      SamplerConfig(method="adaptive", eta=0.0075,
                                    g_min=g_min, max_steps=1000))
        qa = mmd(traj.final, reference)
        nulla = mmd_permutation_null(traj.final, reference, 100, seed=4)
        say(f"  adaptive g_min {g_min:.4f}: mmd {qa:.5f} p99 {np.percentile(nulla,99):.5f} "
            f"NFE {traj.steps_used.sum() / 250000:.3f} std {traj.steps_used.std():.1f} "
            f"capped {traj.cap_reached.sum()}")

say("pilot6b done")
log.close()
