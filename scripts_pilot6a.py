"""Pilot 6A: memorization with center+ring fixture, full 20k budget."""
import time

import numpy as np

from eqmatch.data import fixed_memorization_set, sample_noise
from eqmatch.evaluation import grad_norm_at_data, local_minima_membership
from eqmatch.model import ModelConfig, init_model
from eqmatch.objective import draw_batch, loss_for
from eqmatch.optimizer import AdamW
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, sample
from eqmatch.schedule import Schedule
from eqmatch import ndtensor as nd

t0 = time.time()
log = open("/tmp/pilot/log6a.txt", "a", buffering=1)

def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)
pts = fixed_memorization_set(8, 7)
say(f"fixture: center {pts[0]} ring radius {np.linalg.norm(pts[1]):.2f}")

for lr, tile, steps in ((1e-2, 2, 20000),):
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
        if step in (2000, 5000, 10000, 15000, 19999):
            stats = grad_norm_at_data(m, pts, seed=1)
            say(f"lr {lr} tile {tile} step {step}: loss {loss.item():.3f} "
                f"at_data {stats['at_data'].mean:.4f} at_half {stats['at_half_corrupted'].mean:.3f} "
                f"ratio {stats['at_data'].mean / stats['at_half_corrupted'].mean:.4f}")
    g_min = max(calibrate_g_min(m, pts, 5.0), 1e-9)
    say(f"g_min {g_min:.5f}")
    for eta in (0.003, 0.005, 0.01):
        try:
            cfgS = SamplerConfig(method="adaptive", eta=eta, g_min=g_min, max_steps=1000)
            frac = local_minima_membership(m, pts, n_inits=512, radius=0.25, config=cfgS, seed=5)
            traj = sample(ModelField(m), sample_noise(512, 2, 5), cfgS)
            # which points get hit
            d = np.linalg.norm(traj.final[:, None] - pts[None], axis=2)
            hits = np.bincount(np.argmin(d, axis=1), minlength=8)
            say(f"eta {eta}: membership {frac:.4f} steps mean {traj.steps_used.mean():.0f} "
                f"capped {traj.cap_reached.sum()} hits {hits.tolist()}")
        except nd.NonFiniteError as e:
            say(f"eta {eta}: DIVERGED {e}")

say("pilot6a done")
log.close()
