"""Pilot study for acceptance configs (not part of the package)."""
import json
import time

import numpy as np

from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import default_mixture, fixed_memorization_set, ood_sets, sample_noise, draw_from
from eqmatch.evaluation import (auroc, grad_norm_at_data, local_minima_membership,
                                mmd, mmd_permutation_null, mode_coverage)
from eqmatch.model import ModelConfig, energy
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train

t_start = time.time()
log = open("/tmp/pilot/log.txt", "a", buffering=1)


def say(msg):
    print(f"[{time.time()-t_start:7.1f}s] {msg}", file=log)


MODEL = dict(input_dim=2, hidden=(256, 256, 256), activation="silu")
SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)
OPT = OptimizerSettings(lr=1e-3)

say("=== mem8: memorization run ===")
cfg_mem = RunConfig(seed=101, objective="eqm",
                    dataset=DatasetSpec(kind="memorization", k=8, data_seed=7),
                    model=ModelConfig(**MODEL, init_seed=11),
                    schedule=SCHED, optimizer=OPT,
                    train=TrainSettings(steps=20000, batch_size=8))
r_mem = train(cfg_mem, out_dir="/tmp/pilot/mem8")
say(f"mem8 trained, loss head {r_mem.losses[:100].mean():.4f} tail {r_mem.losses[-100:].mean():.6f}")
pts = cfg_mem.dataset.memorization_points()
stats = grad_norm_at_data(r_mem.model, pts, seed=1)
say(f"mem8 grad norms: at_data mean {stats['at_data'].mean:.5f} p05 {stats['at_data'].p05:.5f} | "
    f"half mean {stats['at_half_corrupted'].mean:.4f} -> ratio {stats['at_data'].mean/stats['at_half_corrupted'].mean:.5f}")
g_min = calibrate_g_min(r_mem.model, pts, percentile=5.0)
say(f"mem8 calibrated g_min {g_min:.6f}")
for eta in (0.01, 0.02, 0.04):
    cfgS = SamplerConfig(method="adaptive", eta=eta, g_min=max(g_min, 1e-9), max_steps=1000)
    frac = local_minima_membership(r_mem.model, pts, n_inits=512, radius=0.25, config=cfgS, seed=5)
    traj = sample(ModelField(r_mem.model), sample_noise(512, 2, 5), cfgS)
    say(f"mem8 eta {eta}: membership {frac:.4f}, steps mean {traj.steps_used.mean():.1f} "
        f"max {traj.steps_used.max()} capped {traj.cap_reached.sum()}")

say("=== eqm_main: 8-mode mixture ===")
dist = default_mixture()
cfg_eqm = RunConfig(seed=201, objective="eqm",
                    dataset=DatasetSpec(kind="gaussian-mixture"),
                    model=ModelConfig(**MODEL, init_seed=21),
                    schedule=SCHED, optimizer=OPT,
                    train=TrainSettings(steps=20000, batch_size=64))
r_eqm = train(cfg_eqm, out_dir="/tmp/pilot/eqm")
say(f"eqm trained, loss tail {r_eqm.losses[-100:].mean():.4f}")

reference, _ = draw_from(dist, 1000, np.random.default_rng(9001))
x0 = sample_noise(1000, 2, 77)
radius = 3 * 0.4

for eta in (0.005, 0.01, 0.02, 0.04):
    final = sample(r_eqm.model, x0, SamplerConfig(eta=eta, steps=250)).final
    q = mmd(final, reference)
    cov, inm = mode_coverage(final, dist.modes, radius)
    say(f"eqm gd eta {eta}: mmd {q:.5f} cov {cov:.2f} in-mode {inm:.3f}")

null = mmd_permutation_null(sample(r_eqm.model, x0, SamplerConfig(eta=0.01, steps=250)).final,
                            reference, n_permutations=200, seed=3)
say(f"perm null: mean {null.mean():.6f} std {null.std():.6f} p99 {np.percentile(null,99):.6f}")

say("=== fm baseline ===")
cfg_fm = RunConfig(seed=301, objective="uncond-fm",
                   dataset=DatasetSpec(kind="gaussian-mixture"),
                   model=ModelConfig(**MODEL, init_seed=31),
                   schedule=SCHED, optimizer=OPT,
                   train=TrainSettings(steps=20000, batch_size=64))
r_fm = train(cfg_fm, out_dir="/tmp/pilot/fm")
say(f"fm trained, loss tail {r_fm.losses[-100:].mean():.4f}")
fm_field = ModelField(r_fm.model, negate=True)
for eta in (0.002, 0.004, 0.008):
    final = sample(fm_field, x0, SamplerConfig(eta=eta, steps=250)).final
    q = mmd(final, reference)
    cov, inm = mode_coverage(final, dist.modes, radius)
    say(f"fm eta {eta}: mmd {q:.5f} cov {cov:.2f} in-mode {inm:.3f}")

say("=== criterion 10/11 probes on eqm ===")
g_min_eqm = calibrate_g_min(r_eqm.model, draw_from(dist, 512, np.random.default_rng(55))[0], 5.0)
say(f"eqm calibrated g_min {g_min_eqm:.5f}")
for eta in (0.01, 0.02):
    fixed = sample(r_eqm.model, x0, SamplerConfig(eta=eta, steps=250)).final
    q_fixed = max(0.0, mmd(fixed, reference))
    traj = sample(ModelField(r_eqm.model), x0,
                  SamplerConfig(method="adaptive", eta=eta, g_min=g_min_eqm, max_steps=1000))
    q_ad = max(0.0, mmd(traj.final, reference))
    nfe = traj.steps_used.sum() / (len(x0) * 250)
    say(f"adaptive eta {eta}: fixed mmd {q_fixed:.5f} adaptive mmd {q_ad:.5f} "
        f"NFE {nfe:.3f} steps std {traj.steps_used.std():.1f} capped {traj.cap_reached.sum()}")
for eta in (0.02, 0.04, 0.06):
    for seed in (1, 2, 3):
        x0s = sample_noise(1000, 2, 700 + seed)
        gd25 = sample(r_eqm.model, x0s, SamplerConfig(eta=eta, steps=25)).final
        nag25 = sample(r_eqm.model, x0s, SamplerConfig(method="nag", eta=eta, mu=0.35, steps=25)).final
        say(f"25 steps eta {eta} seed {seed}: gd mmd {mmd(gd25, reference):.5f} "
            f"nag mmd {mmd(nag25, reference):.5f}")

say("=== criterion 13 partial noise ===")
holdout, _ = draw_from(dist, 1000, np.random.default_rng(9002))
from eqmatch.objective import corrupt
for gamma in (0.0, 0.5, 0.8):
    eps = np.random.default_rng(40 + int(gamma * 10)).standard_normal(holdout.shape)
    start = corrupt(holdout, eps, np.full(1000, gamma))
    eqm_f = sample(r_eqm.model, start, SamplerConfig(eta=0.01, steps=250)).final
    fm_f = sample(fm_field, start, SamplerConfig(eta=0.004, steps=250)).final
    say(f"partial gamma {gamma}: eqm mmd {mmd(eqm_f, reference):.5f} fm mmd {mmd(fm_f, reference):.5f}")

say("pilot done")
log.close()
