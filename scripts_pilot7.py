"""Pilot 7: memorization tile-4 grid + longer eqm-e."""
import time
import numpy as np
from eqmatch.data import fixed_memorization_set, sample_noise, ToyDistribution, draw_from, ood_sets
from eqmatch.evaluation import grad_norm_at_data, local_minima_membership, auroc
from eqmatch.model import ModelConfig, init_model, energy
from eqmatch.objective import draw_batch, loss_for
from eqmatch.optimizer import AdamW
from eqmatch.sampler import ModelField, SamplerConfig, calibrate_g_min, sample
from eqmatch.schedule import Schedule
from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.training import train
from eqmatch import ndtensor as nd

t0 = time.time()
log = open("/tmp/pilot/log7.txt", "a", buffering=1)
def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)
pts = fixed_memorization_set(8, 7)

def mem_case(lr, tile, steps):
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
    line = (f"mem lr {lr} tile {tile} steps {steps}: at_data {stats['at_data'].mean:.4f} "
            f"at_half {stats['at_half_corrupted'].mean:.3f} ratio {ratio:.4f} g_min {g_min:.4f}")
    for eta in (0.003, 0.005):
        try:
            cfgS = SamplerConfig(method="adaptive", eta=eta, g_min=g_min, max_steps=1000)
            frac = local_minima_membership(m, pts, n_inits=512, radius=0.25, config=cfgS, seed=5)
            traj = sample(ModelField(m), sample_noise(512, 2, 5), cfgS)
            line += f" | eta {eta}: member {frac:.4f} capped {traj.cap_reached.sum()}"
        except nd.NonFiniteError:
            line += f" | eta {eta}: DIVERGED"
    say(line)

mem_case(3e-3, 4, 20000)
mem_case(1e-2, 4, 20000)

say("=== eqm-e longer ===")
dist = ToyDistribution(mode_std=0.3)
cfg = RunConfig(seed=401, objective="eqm-e",
                dataset=DatasetSpec(kind="gaussian-mixture", mode_std=0.3),
                model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=41,
                                  energy_kind="dot"),
                schedule=SCHED, optimizer=OptimizerSettings(lr=3e-3),
                train=TrainSettings(steps=16000, batch_size=48))
r = train(cfg)
say(f"eqm-e 16k: loss tail {r.losses[-100:].mean():.3f}")
id_pts, _ = draw_from(dist, 1000, np.random.default_rng(8001))
scores_id = energy(r.model, id_pts)
say(f"ID energy mean {scores_id.mean():.3f} p95 {np.percentile(scores_id,95):.3f}")
for name, p in ood_sets(dist, 1000, 8002).items():
    s = energy(r.model, p)
    say(f"  {name}: mean {s.mean():.2f} auroc {auroc(scores_id, s):.4f}")
say("pilot7 done")
log.close()
