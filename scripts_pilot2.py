"""Pilot 2: explicit-energy OOD + conditional composition (not part of the package)."""
import time

import numpy as np

from eqmatch.config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from eqmatch.data import default_mixture, draw_from, ood_sets, sample_noise
from eqmatch.evaluation import auroc, component_energy, mmd, mode_coverage
from eqmatch.model import ModelConfig, energy
from eqmatch.sampler import ModelField, SamplerConfig, compose, sample
from eqmatch.schedule import Schedule
from eqmatch.training import train

t_start = time.time()
log = open("/tmp/pilot/log2.txt", "a", buffering=1)


def say(msg):
    print(f"[{time.time()-t_start:7.1f}s] {msg}", file=log)


MODEL = dict(input_dim=2, hidden=(256, 256, 256), activation="silu")
SCHED = Schedule(kind="truncated", a=0.8, lam=4.0)
OPT = OptimizerSettings(lr=1e-3)
dist = default_mixture()

say("=== eqm-e dot on mixture ===")
cfg_e = RunConfig(seed=401, objective="eqm-e",
                  dataset=DatasetSpec(kind="gaussian-mixture"),
                  model=ModelConfig(**MODEL, init_seed=41, energy_kind="dot"),
                  schedule=SCHED, optimizer=OPT,
                  train=TrainSettings(steps=6000, batch_size=48))
r_e = train(cfg_e, out_dir="/tmp/pilot/eqme")
say(f"eqm-e trained, loss head {r_e.losses[:100].mean():.4f} tail {r_e.losses[-100:].mean():.4f}")

id_pts, _ = draw_from(dist, 1000, np.random.default_rng(8001))
scores_id = energy(r_e.model, id_pts)
say(f"ID energy: mean {scores_id.mean():.3f} p95 {np.percentile(scores_id,95):.3f}")
for name, pts in ood_sets(dist, 1000, 8002).items():
    s = energy(r_e.model, pts)
    say(f"OOD {name}: mean {s.mean():.3f} auroc {auroc(scores_id, s):.4f}")

say("=== conditional eqm for composition ===")
cfg_c = RunConfig(seed=501, objective="eqm",
                  dataset=DatasetSpec(kind="gaussian-mixture"),
                  model=ModelConfig(**MODEL, init_seed=51, num_classes=8),
                  schedule=SCHED, optimizer=OPT,
                  train=TrainSettings(steps=12000, batch_size=64))
r_c = train(cfg_c, out_dir="/tmp/pilot/cond")
say(f"cond trained, loss tail {r_c.losses[-100:].mean():.4f}")

modes = dist.modes
radius = 3 * 0.4
x0 = sample_noise(512, 2, 606)
# single-label sanity: does label k sample land on mode k?
for k in (0, 1):
    final = sample(ModelField(r_c.model, label=k), x0, SamplerConfig(eta=0.01, steps=250)).final
    d = np.linalg.norm(final - modes[k], axis=1)
    say(f"label {k}: median dist to own mode {np.median(d):.3f} within-3sig {np.mean(d <= radius):.3f}")

for la, lb in ((0, 1), (0, 2), (1, 2)):
    field = compose([r_c.model, r_c.model], labels=[la, lb])
    final = sample(field, x0, SamplerConfig(eta=0.01, steps=250)).final
    da = np.linalg.norm(final - modes[la], axis=1)
    db = np.linalg.norm(final - modes[lb], axis=1)
    near_any = np.mean(np.minimum(da, db) <= radius)
    mid = (modes[la] + modes[lb]) / 2
    dmid = np.linalg.norm(final - mid, axis=1)
    # energy-sum comparison vs single-label samples
    ea = component_energy(r_c.model, final, label=la) + component_energy(r_c.model, final, label=lb)
    single_a = sample(ModelField(r_c.model, label=la), x0, SamplerConfig(eta=0.01, steps=250)).final
    single_b = sample(ModelField(r_c.model, label=lb), x0, SamplerConfig(eta=0.01, steps=250)).final
    singles = np.concatenate([single_a, single_b])
    es = (component_energy(r_c.model, singles, label=la)
          + component_energy(r_c.model, singles, label=lb))
    say(f"compose {la}+{lb}: within-3sig-of-either {near_any:.3f}, median dist to midpoint "
        f"{np.median(dmid):.3f}, median energy-sum composed {np.median(ea):.3f} vs single {np.median(es):.3f}")

say("pilot2 done")
log.close()
