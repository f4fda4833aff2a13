"""Command-line harness: simulate / equilibrium / casimir-check / convergence.

Exit codes: 0 success, 1 configuration or usage error (a missing
``--config``, a config file that cannot be read, an ``--out`` that cannot be
a directory, an unknown command, a ``--levels`` below 1), 2 numerical abort.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import numbers
import os
import sys

# A drift within this fraction of a column's largest |value| (or of 1, the
# mass every functional integrates, where the values vanish: C1 of a pure
# state) at every level is round-off: ``convergence`` fits it no order.
ROUNDOFF_DRIFT = 64 * sys.float_info.epsilon


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's exit code 2 means a numerical abort here
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _levels(value):
    if not value.isdigit() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got '{value}'")
    return int(value)


def build_parser():
    parser = _Parser(prog="mqclab", description="Mixed quantum-classical dynamics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("equilibrium", cmd_equilibrium),
                     ("casimir-check", cmd_casimir_check), ("convergence", cmd_convergence)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config (YAML)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--model", default=None, help="override the configured model")
        p.add_argument("--quiet", action="store_true")
        if name == "convergence":
            p.add_argument("--levels", type=_levels, default=3)
            p.add_argument("--mode", choices=("both", "temporal"), default="both")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .config import ConfigError
    from .dynamics import NumericalAbort

    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out that cannot be made a directory or written in
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _check_out(out):
    """Raise the OSError that making ``out`` a directory to write in would
    end in, without making it: ``out`` is empty, an existing file, lies
    under one, or its nearest existing directory cannot be written in."""
    if not out:  # abspath would read it as the current directory
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    base = os.path.abspath(out)
    while not os.path.lexists(base):
        base = os.path.dirname(base)
    if not os.path.isdir(base):
        code = errno.EEXIST if base == os.path.abspath(out) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), out)
    if not os.access(base, os.W_OK | os.X_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), out)


def _prepare(args):
    from . import config as C

    cfg = C.load_config(args.config)
    _check_out(args.out)  # before any numerical work, and making nothing
    grid = C.build_grid(cfg)
    ham = C.build_hamiltonian(grid, cfg)
    return C, cfg, grid, ham


def _meta(cfg, model, run):
    lam_mins = [r.get("lambda_min") for r in run.rows if r.get("lambda_min") is not None]
    return {
        "format": "mqclab-meta 1",
        "model": model,
        "config": cfg,
        "notes": {
            "beyond_ordering": (
                "trace corrections in the gradient-corrected vector field keep "
                "the written left-to-right operator order"
            ),
            "vacuum_continuation": (
                "conditional factors below the density floor are continued from "
                "the nearest valid point along grid lines"
            ),
        },
        "flags": {
            "aborted": run.aborted,
            "abort_reason": run.abort_reason,
            "cfl_max_seen": run.cfl_max_seen,
            "lambda_nonpositive_seen": min(lam_mins) <= 0.0 if lam_mins else None,
        },
    }


def cmd_simulate(args):
    from . import diagnostics as diag
    from .dynamics import rk4_run
    from .snapshots import write_snapshot

    Cmod, cfg, grid, ham = _prepare(args)
    model = Cmod.model_of(cfg, args.model)
    state = Cmod.build_initial_state(grid, ham, cfg)
    stepper = Cmod.build_stepper(cfg, grid, ham, model, state)
    loop = Cmod.build_loop(cfg, grid)
    sample_fn = Cmod.build_sample_fn(cfg, model, ham)

    os.makedirs(args.out, exist_ok=True)
    write_snapshot(os.path.join(args.out, "initial.snap"), state)
    run = rk4_run(model, state, ham, stepper, sample_fn=sample_fn, loop=loop,
                  keep_states=False)
    with open(os.path.join(args.out, "diagnostics.csv"), "w") as fh:
        fh.write(diag.rows_to_csv(run.rows))
    _write_json(os.path.join(args.out, "meta.json"), _meta(cfg, model, run))
    if run.aborted:
        if run.states:
            write_snapshot(os.path.join(args.out, "abort.snap"), run.states[-1])
        print(f"numerical abort: {run.abort_reason}", file=sys.stderr)
        return 2
    write_snapshot(os.path.join(args.out, "final.snap"), run.states[-1])
    _say(args, f"{model}: {stepper.steps} steps of dt={stepper.dt:.6g}, "
               f"{len(run.rows)} samples, max CFL {run.cfl_max_seen:.3f}")
    return 0


def cmd_equilibrium(args):
    from . import equilibria as eq
    from .hamiltonians import UnsupportedHamiltonianError
    from .snapshots import write_snapshot

    Cmod, cfg, grid, ham = _prepare(args)
    problem = Cmod.build_problem(grid, ham, cfg)
    T_check = Cmod.certificate_time(cfg)
    try:
        mu = problem.mu if problem.mu is not None else eq.solve_mu(problem)[0]
        result = eq.equilibrium_at(problem, mu, check_confined=True)
        metrics, unmeasured = dict(result.residuals), {}
        if T_check is not None and result.seam_kinked:
            unmeasured = {"certificate": None, "certificate_reason": (
                "not measured: the landscape is kinked at the domain seam, where the "
                "stationarity run would advect a phase jump; certify a seam-free trig_* "
                "surrogate")}
        elif T_check is not None:  # above the work cap it fails at T_check
            metrics.update(eq.stationarity_residual(result, ham, T_check=T_check))
    except UnsupportedHamiltonianError as exc:  # no closed form for this kind
        raise Cmod.ConfigError("equilibrium.representation", str(exc)) from None
    except eq.ProblemError as exc:
        # a mu solved from the target energy is reported as E, the key the config set
        key = "E" if exc.key == "mu" and problem.mu is None else exc.key
        raise Cmod.ConfigError(Cmod.problem_path(key), str(exc)) from None

    os.makedirs(args.out, exist_ok=True)
    write_snapshot(os.path.join(args.out, "equilibrium.snap"), result.state)
    record = {
        "mu": result.mu,
        "Z_C": result.Z_C,
        "ln_Z_C": result.ln_Z_C,
        "branch": result.branch,
        "energy": result.energy,
        "metrics": metrics,
    }
    _write_json(os.path.join(args.out, "equilibrium.json"), {**record, **unmeasured})
    _say(args, f"mu={result.mu:.6g} energy={result.energy:.6g} "
               + " ".join(f"{k}={v:.3e}" for k, v in metrics.items()
                          if isinstance(v, float) and k != "T_check"))
    return 0


def cmd_casimir_check(args):
    import numpy as np

    from .probes import casimir_probe_report, random_smooth_split

    Cmod, cfg, grid, ham = _prepare(args)
    seed, n_probes, n = Cmod.probe_spec(cfg, ham)
    rng = np.random.default_rng(seed)
    split = random_smooth_split(grid, n, rng)
    report = casimir_probe_report(split, ham, rng, n_probes=n_probes)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "casimir_report.json"), report)
    _say(args, "worst |{{f,C}}| / scale per Casimir:")
    for k, v in sorted(report["worst_ratio"].items()):
        _say(args, f"  {k:20s} {v:.3e}")
    _say(args, f"antisymmetry max: {report['antisymmetry_max']:.3e}")
    return 0


def _study_levels(args, Cmod, cfg, grid0, time0):
    """(grid, ham, model, state, stepper, sample_fn) of every level of the
    ``convergence`` study, each built and checked before any level runs.
    Level k refines the work of level 0 by up to 8^k, the allowance it gets
    under the work cap."""
    levels = []
    for level in range(args.levels):
        f = 2**level
        time = dict(time0, sample_every=time0["sample_every"] * f)
        if args.mode == "both" and time0["dt"] is not None:  # a given step count too
            time.update(dt=time0["dt"] / f, steps=time0["steps"] and time0["steps"] * f)
        elif args.mode == "temporal" and level > 0:
            # the level-0 step, however it was set, halved at the same final time
            time.update(dt=dt0 / f, steps=steps0 * f, cfl=None, t_final=None)
        scaled = Cmod.rescaled(cfg, grid0, f if args.mode == "both" else 1, time)

        grid = Cmod.build_grid(scaled)
        ham = Cmod.build_hamiltonian(grid, scaled)
        model = Cmod.model_of(scaled, args.model)
        state = Cmod.build_initial_state(grid, ham, scaled)
        stepper = Cmod.build_stepper(scaled, grid, ham, model, state, refinement=8**level)
        if level == 0:
            dt0, steps0 = stepper.dt, stepper.steps
        levels.append((grid, ham, model, state, stepper,
                       Cmod.build_sample_fn(scaled, model, ham)))
    return levels


def cmd_convergence(args):
    import numpy as np

    from .dynamics import rk4_run

    Cmod, cfg, grid0, _ = _prepare(args)
    time0 = Cmod.time_spec(cfg)
    if time0["t_final"] is None and None in (time0["dt"], time0["steps"]):
        raise Cmod.ConfigError("time.t_final", "convergence study needs a fixed final time")

    drift_cols = ["mass", "energy", "C1", "C2", "S_pure", "S_uhlmann", "renyi_alpha"]
    table = []
    roundoff = dict.fromkeys(drift_cols, True)  # drift within round-off at every level so far
    hs = []
    for level, (grid, ham, model, state, stepper, sample_fn) in enumerate(
            _study_levels(args, Cmod, cfg, grid0, time0)):
        run = rk4_run(model, state, ham, stepper, sample_fn=sample_fn, keep_states=False)
        if run.aborted:
            print(f"numerical abort at level {level}: {run.abort_reason}", file=sys.stderr)
            return 2
        drifts = {}
        for col in drift_cols:
            vals = [r[col] for r in run.rows if r.get(col) is not None]
            drifts[col] = max(abs(v - vals[0]) for v in vals) if vals else None
            roundoff[col] &= bool(vals) and drifts[col] <= ROUNDOFF_DRIFT * max(1.0, *map(abs, vals))
        hs.append(grid.dq if args.mode == "both" else stepper.dt)
        table.append(drifts)
        _say(args, f"level {level}: N={grid.Nq} dt={stepper.dt:.3e} " +
             " ".join(f"{c}={drifts[c]:.3e}" for c in drift_cols if drifts[c] is not None))

    fits = {}
    if len(set(hs)) < max(len(hs), 2):
        print(f"no order fitted: the step sizes h = {hs} are not distinct", file=sys.stderr)
    else:
        x = np.log(np.array(hs))
        for col in drift_cols:
            ys = [row[col] for row in table]
            if any(y is None for y in ys) or any(y <= 0 for y in ys):
                continue
            if roundoff[col]:
                print(f"no order fitted for {col}: its drift is round-off at every level",
                      file=sys.stderr)
                continue
            y = np.log(np.array(ys))
            A = np.stack([x, np.ones_like(x)], axis=1)
            coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
            yhat = A @ coef
            ss_res = float(np.sum((y - yhat) ** 2))
            ss_tot = float(np.sum((y - np.mean(y)) ** 2))
            fits[col] = {"order": float(coef[0]),
                         "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0}

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "convergence.csv"), "w") as fh:
        fh.write("level,h," + ",".join(drift_cols) + "\n")
        for lvl, (h, row) in enumerate(zip(hs, table)):
            cells = [str(lvl), format(h, ".17g")]
            cells += ["" if row[c] is None else format(row[c], ".17g") for c in drift_cols]
            fh.write(",".join(cells) + "\n")
        fh.write("\n")
        fh.write("diagnostic,order,r2\n")
        for col, fit in fits.items():
            fh.write(f"{col},{fit['order']:.4f},{fit['r2']:.6f}\n")
    for col, fit in fits.items():
        _say(args, f"{col}: observed order {fit['order']:.2f} (R2 {fit['r2']:.4f})")
    return 0


def _json_numbers(record):
    """``record`` with every number as JSON writes it: integers and booleans
    unchanged, floats only when finite (JSON has no NaN or Infinity; those
    become null); strings and None unchanged, dicts and lists item by item."""
    if isinstance(record, dict):
        return {k: _json_numbers(v) for k, v in record.items()}
    if isinstance(record, (list, tuple)):
        return [_json_numbers(v) for v in record]
    if record is None or isinstance(record, (str, numbers.Integral)):
        return record
    x = float(record)
    return x if math.isfinite(x) else None


def _write_json(path, record):
    """Write ``record`` to ``path`` as strict JSON, the one rule of every JSON
    file the CLI writes: numbers through ``_json_numbers``, keys sorted."""
    with open(path, "w") as fh:
        json.dump(_json_numbers(record), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
