"""Pilot 8a: memorization lr x schedule grid at batch 32, 20k steps."""
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
log = open("/tmp/pilot/log8a.txt", "a", buffering=1)
def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

pts = fixed_memorization_set(8, 7)

def mem_case(lr, sched, name):
    rng = np.random.default_rng(909)
    m = init_model(ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=11))
    opt = AdamW(lr=lr)
    x = np.tile(pts, (4, 1))
    for step in range(20000):
        b = draw_batch(rng, x)
        loss = loss_for("eqm", m, b, sched)
        grads = nd.backward(loss)
        bound = m._bind(loss.graph)
        opt.step(m.params, {k: nd.grad_values(grads, bound[k]) for k in m.params})
    stats = grad_norm_at_data(m, pts, seed=1)
    ratio = stats["at_data"].mean / stats["at_half_corrupted"].mean
    g_min = max(calibrate_g_min(m, pts, 5.0), 1e-9)
    line = (f"{name} lr {lr}: at_data {stats['at_data'].mean:.4f} at_half "
            f"{stats['at_half_corrupted'].mean:.3f} ratio {ratio:.4f} g_min {g_min:.4f}")
    for eta in (0.003, 0.005):
        try:
            cfgS = SamplerConfig(method="adaptive", eta=eta, g_min=g_min, max_steps=1000)
            frac = local_minima_membership(m, pts, n_inits=512, radius=0.25, config=cfgS, seed=5)
            line += f" | eta {eta}: member {frac:.4f}"
        except nd.NonFiniteError:
            line += f" | eta {eta}: DIVERGED"
    say(line)

mem_case(1e-3, Schedule(kind="truncated", a=0.8, lam=4.0), "trunc")
mem_case(2e-3, Schedule(kind="truncated", a=0.8, lam=4.0), "trunc")
mem_case(2e-3, Schedule(kind="linear", lam=4.0), "linear")
say("pilot8a done")
log.close()
