"""Pilot 9b: eqm-e warm-start and slow-lr variants."""
import time
import numpy as np
from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import ToyDistribution, draw_from, ood_sets, sample_noise
from eqmatch.evaluation import auroc, mode_coverage
from eqmatch.model import ModelConfig, energy
from eqmatch.sampler import SamplerConfig, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train

t0 = time.time()
log = open("/tmp/pilot/log9b.txt", "a", buffering=1)
def say(msg):
    print(f"[{time.time()-t0:7.1f}s] {msg}", file=log)

SIGMA = 0.3
dist = ToyDistribution(mode_std=SIGMA)

# step 1: implicit eqm 8k as the warm start
base_cfg = RunConfig(seed=401, objective="eqm",
                     dataset=DatasetSpec(kind="gaussian-mixture", mode_std=SIGMA),
                     model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=41),
                     schedule=Schedule(kind="truncated", a=0.8, lam=4.0),
                     optimizer=OptimizerSettings(lr=3e-3),
                     train=TrainSettings(steps=8000, batch_size=64))
base = train(base_cfg, out_dir="/tmp/pilot/eqme_base")
say(f"eqm base trained: loss tail {base.losses[-100:].mean():.3f}")

def check(model, tag):
    id_pts, _ = draw_from(dist, 1000, np.random.default_rng(8001))
    s_id = energy(model, id_pts)
    msg = f"{tag}: ID mean {s_id.mean():.3f}"
    for name, p in ood_sets(dist, 1000, 8002).items():
        s = energy(model, p)
        msg += f" | {name} mean {s.mean():.1f} auroc {auroc(s_id, s):.4f}"
    say(msg)
    final = sample(model, sample_noise(512, 2, 3), SamplerConfig(eta=0.0075, steps=250)).final
    cov, inm = mode_coverage(final, dist.modes, 3 * SIGMA)
    say(f"{tag}: sampling cov {cov:.2f} in-mode {inm:.3f}")

for steps, lr in ((8000, 1e-3), (8000, 3e-3)):
    cfg = RunConfig(seed=402, objective="eqm-e",
                    dataset=DatasetSpec(kind="gaussian-mixture", mode_std=SIGMA),
                    model=ModelConfig(input_dim=2, hidden=(256, 256, 256), init_seed=41,
                                      energy_kind="dot"),
                    schedule=Schedule(kind="truncated", a=0.8, lam=4.0),
                    optimizer=OptimizerSettings(lr=lr),
                    train=TrainSettings(steps=steps, batch_size=48))
    r = train(cfg, init_from="/tmp/pilot/eqme_base/checkpoint.eqmckpt")
    say(f"eqm-e warm lr {lr}: loss head {r.losses[:100].mean():.3f} tail {r.losses[-100:].mean():.3f}")
    check(r.model, f"warm-lr{lr}")
say("pilot9b done")
log.close()
