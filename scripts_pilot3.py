"""Pilot 3: memorization-regime learning-rate/batch sweep."""
import sys
import time

import numpy as np

from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import fixed_memorization_set, sample_noise
from eqmatch.evaluation import grad_norm_at_data, local_minima_membership
from eqmatch.model import ModelConfig
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train
from eqmatch.objective import TrainBatch, loss_for, draw_batch
from eqmatch import ndtensor as nd
from eqmatch.optimizer import AdamW

t0 = time.time()
log = open("/tmp/pilot/log3.txt", "a", buffering=1)

def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)
pts = fixed_memorization_set(8, 7)

def run_case(lr, steps, tile):
    rng = np.random.default_rng(909)
    model_cfg = ModelConfig(input_dim=2, hidden=(256, 256, 256), activation="silu", init_seed=11)
    from eqmatch.model import init_model
    m = init_model(model_cfg)
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
    cfgS = SamplerConfig(method="adaptive", eta=0.02, g_min=g_min, max_steps=1000)
    frac = local_minima_membership(m, pts, n_inits=512, radius=0.25, config=cfgS, seed=5)
    say(f"lr {lr} steps {steps} tile {tile}: loss final {loss.item():.3f} "
        f"at_data {stats['at_data'].mean:.4f} at_half {stats['at_half_corrupted'].mean:.3f} "
        f"ratio {ratio:.4f} g_min {g_min:.5f} membership {frac:.4f}")

for lr in (3e-3, 1e-2):
    for tile in (1, 4):
        run_case(lr, 6000, tile)
say("pilot3 done")
log.close()
