"""Command-line orchestration.

Subcommands: train, sample, eval, sweep, plot. Every command honors --seed
and reads entropy only through seeded generators. Exit codes: 0 on success,
1 on validation errors, 2 on numerical failures. `sample --label` may repeat:
the field sampled is the sum of the model's fields at the given labels.

The default output directory comes from $EQMATCH_OUT (falling back to the
current directory) whenever a command does not pass one explicitly.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import READ_CHUNK, Checkpoint, load_checkpoint
from .config import RunConfig, ValidationError, load_config, to_dict
from .data import (draw_from, ood_sets, read_csv, read_points, sample_noise,
                   table_values, write_csv)
from .evaluation import (EvalReport, QuadraticEnergy, append_reports, auroc,
                         config_fingerprint, convergence_bound_check,
                         grad_norm_at_data, ledger_has, local_minima_membership,
                         mmd, mmd_permutation_null, mode_coverage,
                         nearest_neighbor_audit, partial_noise_sweep)
from .model import energy
from .ndtensor import NonFiniteError
from .plotting import (PLOT_KINDS, contour_svg, curves_svg, histogram_svg,
                       scatter_svg, vector_field_svg)
from .sampler import (METHODS, ComposedField, ModelField, SamplerConfig,
                      check_time_grid, sample, save_trajectory_csv)
from .schedule import KINDS as SCHEDULE_KINDS
from .training import set_heap_policy, train

ENV_OUT_DIR = "EQMATCH_OUT"
# the sampler flags `sample` passes on, each named as its SamplerConfig field
SAMPLER_FLAGS = ("method", "eta", "mu", "steps", "g_min", "max_steps")
# the step budget each method reads; the other one is rejected
BUDGETS = {"gd": "steps", "adaptive": "max_steps"}
# each sweep axis and how it reads a --values entry
SWEEP_AXES = {"eta": float, "mu": float, "steps": int, "g-min": float,
              "lambda": float, "schedule": str}


def _default_out_dir() -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, "."))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _sampler_from_args(base: SamplerConfig, args) -> SamplerConfig:
    """`base` overridden by the sampler flags set in `args`. A step budget
    that the chosen method does not read is an error, not a no-op."""
    fields = {name: getattr(args, name) for name in SAMPLER_FLAGS
              if getattr(args, name, None) is not None}
    if fields.get("method") == "adaptive" and "g_min" not in fields and base.g_min is None:
        raise ValidationError("adaptive sampling needs --g-min")
    method = fields.get("method", base.method)
    for name in BUDGETS.values():
        if name in fields and name != BUDGETS[method]:
            raise ValidationError(f"{_flag(name)}: the {method} method does not read "
                                  f"it; its step budget is {_flag(BUDGETS[method])}")
    if method != "adaptive":
        fields.setdefault("g_min", None)
    try:
        return replace(base, **fields)
    except ValueError as e:
        raise ValidationError(str(e)) from e


def _check_seed_and_n(args, least_n: int | None) -> None:
    """Reject a negative --seed, and an --n below `least_n` (None: --n is not
    read), before anything is loaded or sampled."""
    if args.seed < 0:
        raise ValidationError(f"--seed: {args.seed} must be >= 0")
    if least_n is not None and args.n < least_n:
        raise ValidationError(f"--n: {args.n} must be >= {least_n}")


def _write_samples_csv(path, traj) -> None:
    d = traj.final.shape[1]
    write_csv(path, ["sample_id", *[f"x{i}" for i in range(d)], "steps_used",
                     "cap_reached"],
              ([i, *row, int(traj.steps_used[i]), int(traj.cap_reached[i])]
               for i, row in enumerate(traj.final)))


def _file_digest(path) -> str:
    """The first 16 hex digits of the file's SHA-256, read in blocks."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(READ_CHUNK):
            sha.update(block)
    return sha.hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    config = load_config(args.config) if args.config else None
    # a resume without --out continues in the checkpoint's own directory
    out_dir = args.out or (config.out_dir if config and config.out_dir else None) \
        or (Path(args.resume).parent if args.resume else _default_out_dir() / "run")
    result = train(config, out_dir=out_dir, init_from=args.init_from,
                   resume_from=args.resume, quiet=not args.verbose)
    print(f"trained {result.config.objective} for {result.config.train.steps} steps; "
          f"final loss {result.losses[-1]:.6f}; checkpoint {result.checkpoint_path}")
    return 0


def cmd_sample(args) -> int:
    """Sample the sum of the model's fields at the --label values (its
    unlabelled field without one) with the checkpoint's sampler, overridden
    by the flags, from the --start-csv points or seeded noise; write the
    samples CSV and, if asked, the trajectory CSV."""
    _check_seed_and_n(args, 1)
    ck = load_checkpoint(args.checkpoint, optimizer=False)
    field = ComposedField([ModelField(ck.model, label=label)
                           for label in args.label or [None]])
    config = _sampler_from_args(ck.config.sampler, args)
    if args.start_csv:
        x0 = read_points(args.start_csv)
    else:
        x0 = sample_noise(args.n, ck.config.model.input_dim, args.seed)
    record = args.trajectory is not None
    traj = sample(field, x0, config, record=record)
    out = Path(args.out) if args.out else _default_out_dir() / "samples.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_samples_csv(out, traj)
    if record:
        Path(args.trajectory).parent.mkdir(parents=True, exist_ok=True)
        save_trajectory_csv(args.trajectory, traj)
    print(f"wrote {len(traj.final)} samples to {out} "
          f"(mean steps {traj.steps_used.mean():.1f}; on {traj.processes} "
          f"process{'es' if traj.processes > 1 else ''}; "
          f"points evaluated {traj.points_evaluated.sum()})")
    return 0


def _fingerprint(args, sampler: SamplerConfig | None = None,
                 config: RunConfig | None = None) -> str:
    """The ledger key of one `eval` run or `sweep` point, known before any
    sampling so that a re-run can be skipped for free. A retraining sweep
    point is keyed by the run `config` it trains, not by a checkpoint."""
    payload = {"suite": args.suite, "seed": args.seed}
    if args.suite != "statements":
        payload["n"] = args.n
        if config is None:
            payload["ckpt"] = _file_digest(args.checkpoint)
        else:
            payload["config"] = to_dict(config)
    if args.suite == "quality":
        payload["sampler"] = to_dict(sampler)
    elif args.suite == "partial-noise":
        if not args.baseline:
            raise ValidationError("the partial-noise suite needs --baseline "
                                  "(an unconditional velocity-matching checkpoint)")
        payload["baseline"] = _file_digest(args.baseline)
    return config_fingerprint(payload)


def _suite_statements(args, ck, out_dir: Path, fp: str) -> list[EvalReport]:
    quad = QuadraticEnergy(np.diag([1.0, 4.0]))
    rng = np.random.default_rng(args.seed)
    x0s = 3.0 * rng.standard_normal((50, 2))
    reports = []
    for eta_frac in (0.1, 0.5, 1.0):
        res = convergence_bound_check(quad, eta_frac / quad.L, [1, 10, 100, 1000], x0s)
        reports.append(EvalReport(f"statement3-pass-eta{eta_frac}", float(res.passed),
                                  fp, args.seed, aux={"worst_slack": res.worst_slack}))
    anchors = 3.0 * np.stack([np.cos(np.arange(4) * np.pi / 2),
                              np.sin(np.arange(4) * np.pi / 2)], axis=1)

    def anchor_field(x, progress):
        d = ((x[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
        return x - anchors[np.argmin(d, axis=1)]

    stats = grad_norm_at_data(anchor_field, anchors)
    reports.append(EvalReport("statement1-analytic-mean-grad-at-data",
                              stats["at_data"], fp, args.seed))
    frac = local_minima_membership(
        anchor_field, anchors, n_inits=256, radius=0.25,
        config=SamplerConfig(method="adaptive", eta=0.2, g_min=1e-6, max_steps=500),
        seed=args.seed)
    reports.append(EvalReport("statement2-analytic-membership", frac, fp, args.seed))
    return reports


def _quality_reports(config: RunConfig, model, fp: str, seed: int,
                     n: int) -> list[EvalReport]:
    """Sample `model` from seeded noise with `config`'s sampler and score
    against a seeded reference draw of its dataset: MMD, its permutation
    null and, on mixtures, mode coverage."""
    dist = config.dataset.distribution()
    reference, _ = draw_from(dist, n, np.random.default_rng(seed + 1))
    x0 = sample_noise(n, config.model.input_dim, seed)
    final = sample(model, x0, config.sampler).final
    observed = mmd(final, reference)
    null_mmds = mmd_permutation_null(final, reference, n_permutations=100, seed=seed)
    reports = [EvalReport("mmd", max(0.0, observed), fp, seed,
                          aux={"raw": observed, "n": n}),
               EvalReport("mmd-null-p99", float(np.percentile(null_mmds, 99)), fp, seed)]
    if dist.kind == "gaussian-mixture":
        radius = 3.0 * float(np.max(dist.mode_std))
        covered, in_mode = mode_coverage(final, dist.modes, radius)
        reports.append(EvalReport("covered-mode-fraction", covered, fp, seed,
                                  aux={"radius": radius}))
        reports.append(EvalReport("in-mode-sample-fraction", in_mode, fp, seed))
    return reports


def _suite_quality(args, ck: Checkpoint, out_dir: Path, fp: str) -> list[EvalReport]:
    return _quality_reports(ck.config, ck.model, fp, args.seed, args.n)


def _suite_ood(args, ck: Checkpoint, out_dir: Path, fp: str) -> list[EvalReport]:
    if ck.config.model.energy_kind == "none":
        raise ValidationError("the ood suite needs an explicit-energy checkpoint")
    dist = ck.config.dataset.distribution()
    id_points, _ = draw_from(dist, args.n, np.random.default_rng(args.seed + 1))
    scores_id = energy(ck.model, id_points)
    reports = []
    for name, pts in ood_sets(dist, args.n, args.seed).items():
        scores_ood = energy(ck.model, pts)
        reports.append(EvalReport(f"auroc-{name}", auroc(scores_id, scores_ood),
                                  fp, args.seed,
                                  aux={"id_mean_energy": float(scores_id.mean()),
                                       "ood_mean_energy": float(scores_ood.mean())}))
    return reports


def _suite_partial_noise(args, ck: Checkpoint, out_dir: Path, fp: str) -> list[EvalReport]:
    base = load_checkpoint(args.baseline, optimizer=False)
    if base.config.model.noise_conditioned:  # checked before anything is sampled
        try:
            check_time_grid(ck.config.sampler)
        except ValueError as e:
            raise ValidationError(f"--baseline is noise-conditioned, and the suite "
                                  f"samples it with the checkpoint's sampler: {e}") from None
    dist = ck.config.dataset.distribution()
    rng = np.random.default_rng(args.seed + 2)
    holdout, _ = draw_from(dist, args.n, rng)
    reference, _ = draw_from(dist, args.n, rng)
    gammas = [0.0, 0.5, 0.8]
    curves = partial_noise_sweep(ck.model, base.model, gammas, ck.config.sampler,
                                 holdout, reference, seed=args.seed)
    write_csv(out_dir / "partial-noise-curves.csv", ["gamma", "model", "baseline"],
              zip(curves["gamma"], curves["model"], curves["baseline"]))
    reports = []
    for g, mv, bv in zip(curves["gamma"], curves["model"], curves["baseline"]):
        reports.append(EvalReport(f"mmd-start-gamma-{g}-model", mv, fp, args.seed))
        reports.append(EvalReport(f"mmd-start-gamma-{g}-baseline", bv, fp, args.seed))
    return reports


def _suite_nn_audit(args, ck: Checkpoint, out_dir: Path, fp: str) -> list[EvalReport]:
    if ck.config.dataset.kind == "memorization":
        train_set = ck.config.dataset.memorization_points()
    else:
        train_set, _ = draw_from(ck.config.dataset.distribution(), args.n,
                                 np.random.default_rng(args.seed + 1))
    x0 = sample_noise(args.n, ck.config.model.input_dim, args.seed)
    final = sample(ck.model, x0, ck.config.sampler).final
    k = min(3, len(train_set))
    dists = nearest_neighbor_audit(final, train_set, k=k)
    return [EvalReport("nn-top1-mean-sqdist", float(dists[:, 0].mean()), fp, args.seed,
                       aux={"k": k, "top1_min": float(dists[:, 0].min()),
                            "top1_max": float(dists[:, 0].max())})]


# each suite's function and the least --n it takes (None: it reads no --n);
# quality and partial-noise compare two sets of --n points by MMD
SUITES = {"statements": (_suite_statements, None), "quality": (_suite_quality, 2),
          "ood": (_suite_ood, 1), "partial-noise": (_suite_partial_noise, 2),
          "nn-audit": (_suite_nn_audit, 1)}


def cmd_eval(args) -> int:
    run, least_n = SUITES[args.suite]
    _check_seed_and_n(args, least_n)
    if args.suite != "statements" and not args.checkpoint:
        raise ValidationError(f"the {args.suite} suite needs --checkpoint")
    ck = (None if args.suite == "statements"
          else load_checkpoint(args.checkpoint, optimizer=False))
    if ck and ck.config.model.noise_conditioned and args.suite != "ood":
        check_time_grid(ck.config.sampler)  # the suite samples it; checked before any write
    fp = _fingerprint(args, ck and ck.config.sampler)
    out_dir = Path(args.out_dir) if args.out_dir else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = out_dir / "results.csv"
    if ledger_has(ledger, fp) and not args.force:
        print(f"fingerprint {fp} already in {ledger}; skipping (use --force to re-run)")
        return 0
    reports = run(args, ck, out_dir, fp)
    append_reports(ledger, reports)
    for r in reports:
        print(f"{r.metric}: {r.value:.6g}")
    print(f"appended {len(reports)} rows to {ledger}")
    return 0


def _sweep_values(axis: str, text: str) -> list[tuple[str, object]]:
    """(entry, value) for each --values entry, all read before any work."""
    entries = [v.strip() for v in text.split(",") if v.strip()]
    if not entries:
        raise ValidationError("--values is empty")
    read = SWEEP_AXES[axis]
    values = []
    for raw in entries:
        try:
            value = read(raw)
        except ValueError:
            raise ValidationError(f"--values: cannot read '{raw}' as {read.__name__} "
                                  f"for axis '{axis}'") from None
        if axis == "schedule" and value not in SCHEDULE_KINDS:
            raise ValidationError(f"--values: '{raw}' is not a schedule kind for axis "
                                  f"'{axis}' (expected one of {SCHEDULE_KINDS})")
        values.append((raw, value))
    return values


def _sweep_run_config(base: RunConfig, axis: str, value) -> RunConfig:
    """The run config of one retraining-axis sweep value."""
    if axis == "lambda":
        cfg = replace(base, schedule=replace(base.schedule, lam=value))
    else:
        cfg = replace(base, schedule=replace(base.schedule, kind=value),
                      allow_non_equilibrium=(value == "constant"))
    cfg.validate()
    return cfg


def cmd_sweep(args) -> int:
    """The quality suite at each --values entry's sampler or retrained
    config, appended to the ledger as each point ends; a re-run skips the
    points already there."""
    _check_seed_and_n(args, 2)  # each point's quality rows compare two sets by MMD
    values = _sweep_values(args.axis, args.values)
    retrain = args.axis in ("lambda", "schedule")
    if retrain:
        if not args.config:
            raise ValidationError(f"axis '{args.axis}' retrains per value; pass --config")
        base = load_config(args.config)
    else:
        if not args.checkpoint:
            raise ValidationError(f"axis '{args.axis}' sweeps a checkpoint; "
                                  "pass --checkpoint")
        ck = load_checkpoint(args.checkpoint, optimizer=False)
        base = ck.config
    # every point's config is built, and so checked, before any work
    points = []
    for raw, value in values:
        # a checkpoint axis sets the sampler as the `sample` flag of its name
        flags = argparse.Namespace(**{args.axis.replace("-", "_"): value},
                                   method="adaptive" if args.axis == "g-min" else None)
        try:
            config = (_sweep_run_config(base, args.axis, value) if retrain else
                      replace(base, sampler=_sampler_from_args(base.sampler, flags)))
            if config.model.noise_conditioned:
                check_time_grid(config.sampler)
        except ValueError as e:
            raise ValidationError(f"--values: '{raw}' for axis '{args.axis}': {e}") from None
        points.append((raw, config))
    out_dir = Path(args.out_dir) if args.out_dir else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = out_dir / "results.csv"
    for raw, config in points:
        fp = _fingerprint(args, config.sampler, config if retrain else None)
        if ledger_has(ledger, fp):
            print(f"{args.axis}={raw}: fingerprint {fp} already in {ledger}; skipping")
            continue
        model = train(config, out_dir=None).model if retrain else ck.model
        reports = _quality_reports(config, model, fp, args.seed, args.n)
        for r in reports:
            r.aux.update(axis=args.axis, value=raw, sampler=to_dict(config.sampler))
        append_reports(ledger, reports)
        print(f"{args.axis}={raw}: appended {len(reports)} rows to {ledger}")
    return 0


def _plot_bounds(text: str | None) -> tuple | None:
    """--bounds read as four finite numbers xmin < xmax, ymin < ymax."""
    if text is None:
        return None
    try:
        bounds = tuple(float(v) for v in text.split(","))
    except ValueError:
        bounds = ()
    if not (len(bounds) == 4 and np.all(np.isfinite(bounds))
            and bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise ValidationError(f"--bounds: '{text}' is not four finite numbers "
                              "xmin,xmax,ymin,ymax with xmin < xmax and ymin < ymax")
    return bounds


def cmd_plot(args) -> int:
    bounds = _plot_bounds(args.bounds)
    if args.grid is not None and args.grid < 1:
        raise ValidationError(f"--grid: {args.grid} must be >= 1")
    grid = {} if args.grid is None else {"grid": args.grid}  # else each kind's default
    out = Path(args.out) if args.out else _default_out_dir() / f"{args.kind}.svg"
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "vector-field":
        ck = load_checkpoint(_require(args.checkpoint, "--checkpoint"), optimizer=False)
        vector_field_svg(out, ModelField(ck.model, label=args.label),
                         bounds=bounds or (-4.5, 4.5, -4.5, 4.5), **grid)
    elif args.kind == "scatter":
        scatter_svg(out, read_points(_require(args.samples, "--samples")), bounds=bounds)
    elif args.kind == "contour":
        ck = load_checkpoint(_require(args.checkpoint, "--checkpoint"), optimizer=False)
        contour_svg(out, ck.model, bounds=bounds or (-4.5, 4.5, -4.5, 4.5),
                    label=args.label, **grid)
    elif args.kind == "step-hist":
        path = _require(args.samples, "--samples")
        steps = table_values(path, read_csv(path), ["steps_used"])[:, 0]
        histogram_svg(out, steps, title="sampling steps per sample")
    elif args.kind == "gamma-curves":
        path = _require(args.curves, "--curves")
        rows = read_csv(path)
        names = [k for k in rows[0] if k not in ("gamma", None)] if rows else []
        values = table_values(path, rows, ["gamma", *names])
        if not names:
            raise ValidationError(f"{path}: no curve column beside gamma")
        curves_svg(out, values[:, 0], dict(zip(names, values[:, 1:].T)),
                   title="quality vs start noise")
    print(f"wrote {out}")
    return 0


def _require(value, flag: str):
    if value is None:
        raise ValidationError(f"this plot kind needs {flag}")
    return value


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eqmatch",
                                     description="equilibrium gradient-field lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", help="run config path (omit when resuming)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--init-from", help="warm-start parameters from a checkpoint")
    p.add_argument("--resume", help="resume an interrupted run exactly")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="draw samples from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", type=int, action="append",
                   help="class label; repeat it to sample the sum of the fields")
    p.add_argument("--out")
    p.add_argument("--trajectory", help="also record the full trajectory CSV")
    p.add_argument("--start-csv", dest="start_csv",
                   help="initialize from these points instead of noise")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--eta", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--g-min", dest="g_min", type=float)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="run an evaluation suite into the ledger")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--checkpoint")
    p.add_argument("--baseline", help="baseline checkpoint (partial-noise suite)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="grid over a sampling or training axis")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(fn=cmd_sweep, suite="quality")  # every point is a quality run

    p = sub.add_parser("plot", help="emit a deterministic SVG")
    p.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p.add_argument("--out")
    p.add_argument("--checkpoint")
    p.add_argument("--samples")
    p.add_argument("--curves")
    p.add_argument("--label", type=int)
    p.add_argument("--bounds", help="xmin,xmax,ymin,ymax")
    p.add_argument("--grid", type=int,
                   help="grid points per side (vector-field 40, contour 60)")
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None) -> int:
    # every command frees and allocates the same large buffers step after
    # step; under glibc's dynamic thresholds their pages are faulted in anew
    set_heap_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
