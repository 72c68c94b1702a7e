"""Pilot 4: unit-scale geometry re-check."""
import time

import numpy as np

from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import (default_mixture, draw_from, fixed_memorization_set,
                          sample_noise)
from eqmatch.evaluation import (grad_norm_at_data, local_minima_membership, mmd,
                                mmd_permutation_null, mode_coverage)
from eqmatch.model import ModelConfig, init_model
from eqmatch.objective import corrupt, draw_batch, loss_for
from eqmatch.optimizer import AdamW
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train
from eqmatch import ndtensor as nd

t0 = time.time()
log = open("/tmp/pilot/log4.txt", "a", buffering=1)

def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)
dist = default_mixture()
say(f"modes radius {np.linalg.norm(dist.modes[0]):.2f} sigma {dist.mode_std}")

# --- MC ground-truth field along a ray: check interior stability
say("=== MC true field on a ray toward mode 0 ===")
rng = np.random.default_rng(0)
m0 = dist.modes[0]
u = m0 / np.linalg.norm(m0)
N = 400_000
xs, labs = draw_from(dist, N, rng)
eps = rng.standard_normal((N, 2))
gam = rng.uniform(0, 1, N)
xg = corrupt(xs, eps, gam)
c = SCHED(gam)
targets = (eps - xs) * c[:, None]
for t in (0.0, 0.15, 0.3, 0.6, 1.0, 1.3, 1.5):
    y = t * u
    d2 = ((xg - y) ** 2).sum(1)
    w = d2 < 0.02 ** 2 * 4
    if w.sum() < 50:
        w = d2 < np.partition(d2, 200)[200]
    f_true = targets[w].mean(0)
    say(f"  t={t:.2f}: n={w.sum()} f_true={f_true.round(3)} radial={(f_true @ u):+.3f}")

# --- mixture training at two lrs
for lr, steps in ((3e-3, 10000), (1e-2, 10000)):
    cfg = RunConfig(seed=201, objective="eqm",
                    dataset=DatasetSpec(kind="gaussian-mixture"),
                    model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=21),
                    schedule=SCHED, optimizer=OptimizerSettings(lr=lr),
                    train=TrainSettings(steps=steps, batch_size=64))
    r = train(cfg)
    say(f"eqm lr {lr}: loss head {r.losses[:100].mean():.3f} tail {r.losses[-100:].mean():.3f}")
    reference, _ = draw_from(dist, 1000, np.random.default_rng(9001))
    x0 = sample_noise(1000, 2, 77)
    radius = 3 * 0.3
    for eta in (0.005, 0.01, 0.02, 0.04):
        final = sample(r.model, x0, SamplerConfig(eta=eta, steps=250)).final
        q = mmd(final, reference)
        cov, inm = mode_coverage(final, dist.modes, radius)
        say(f"  gd eta {eta}: mmd {q:.5f} cov {cov:.2f} in-mode {inm:.3f}")
    if lr == 1e-2:
        null = mmd_permutation_null(
            sample(r.model, x0, SamplerConfig(eta=0.01, steps=250)).final,
            reference, n_permutations=200, seed=3)
        say(f"  null p99 {np.percentile(null, 99):.6f} std {null.std():.6f}")
        g_min = calibrate_g_min(r.model, draw_from(dist, 512, np.random.default_rng(55))[0], 5.0)
        say(f"  g_min {g_min:.5f}")
        for eta in (0.01, 0.02):
            fixed = sample(r.model, x0, SamplerConfig(eta=eta, steps=250)).final
            qf = max(0.0, mmd(fixed, reference))
            traj = sample(ModelField(r.model), x0,
                          SamplerConfig(method="adaptive", eta=eta,
                                        g_min=g_min, max_steps=1000))
            qa = max(0.0, mmd(traj.final, reference))
            nfe = traj.steps_used.sum() / (1000 * 250)
            say(f"  adaptive eta {eta}: fixed {qf:.5f} adapt {qa:.5f} NFE {nfe:.3f} "
                f"std {traj.steps_used.std():.1f} capped {traj.cap_reached.sum()}")
        for eta in (0.02, 0.04):
            for seed in (1, 2, 3):
                x0s = sample_noise(1000, 2, 700 + seed)
                gd25 = sample(r.model, x0s, SamplerConfig(eta=eta, steps=25)).final
                nag25 = sample(r.model, x0s,
                               SamplerConfig(method="nag", eta=eta, mu=0.35, steps=25)).final
                say(f"  25st eta {eta} seed {seed}: gd {mmd(gd25, reference):.5f} "
                    f"nag {mmd(nag25, reference):.5f}")

# --- memorization center+ring
pts = fixed_memorization_set(8, 7)
for lr, tile, steps in ((1e-2, 2, 10000), (1e-2, 4, 10000)):
    rng = np.random.default_rng(909)
    m = init_model(ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=11))
    opt = AdamW(lr=lr)
    x = np.tile(pts, (tile, 1))
    for step in range(steps):
        b = draw_batch(rng, x)
        loss = loss_for("eqm", m, b, SCHED)
        grads = nd.backward(loss)
        bound = m._bind(loss.graph)
        opt.step(m.params, {k: nd.grad_values(grads, bound[k]) for k in m.params})
    stats = grad_norm_at_data(m, pts, seed=1)
    ratio = stats["at_data"].mean / stats["at_half_corrupted"].mean
    g_min = max(calibrate_g_min(m, pts, 5.0), 1e-9)
    for eta in (0.01, 0.02):
        cfgS = SamplerConfig(method="adaptive", eta=eta, g_min=g_min, max_steps=1000)
        frac = local_minima_membership(m, pts, n_inits=512, radius=0.25, config=cfgS, seed=5)
        traj = sample(ModelField(m), sample_noise(512, 2, 5), cfgS)
        say(f"mem lr {lr} tile {tile} eta {eta}: ratio {ratio:.4f} g_min {g_min:.4f} "
            f"membership {frac:.4f} steps mean {traj.steps_used.mean():.0f} capped {traj.cap_reached.sum()}")

say("pilot4 done")
log.close()
