"""The four benchmark workloads: seeded configs, expected counts, checks.

Every config comes from ``mqclab.presets``. The seed only moves inputs that
leave the work per run unchanged (see README.md, "Seeded inputs").
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import yaml

# The snapshots each command writes (read back and re-written), and the
# outputs that every run of one seed must reproduce byte for byte.
SNAPSHOTS = {
    "simulate": ("initial.snap", "final.snap"),
    "equilibrium": ("equilibrium.snap",),
    "casimir-check": (),
}
COMPARED = {
    "simulate": ("diagnostics.csv", "initial.snap", "final.snap", "meta.json"),
    "equilibrium": ("equilibrium.json", "equilibrium.snap"),
    "casimir-check": ("casimir_report.json",),
}

MASS_DRIFT_LIMIT = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    N: int
    steps: int        # RK4 steps of the run (stationarity run for equilibrium)
    samples: int      # diagnostic rows (simulate) or probes (casimir-check)
    err_limit: float  # invariant_err above this fails the run
    why: str


# err_limit is 3-4x the largest value the seed commit produced over
# seeds 0-9 (nanowire 2.6e-9, beyond 6.5e-10, d_change_l1 <= 7.6e-7 over
# the seeded mu range, casimir worst_ratio 5.4e-7 at probes_seed 12345).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nanowire_cond_loop64", "simulate", 64, 358, 46, 8e-9,
                 "conditional RHS with loop-tracer interpolation and all 9 default "
                 "functionals every 8 steps"),
        Workload("beyond_restart64", "simulate", 64, 69, 19, 2e-9,
                 "beyond-Ehrenfest RHS (batched 2x2 products on (N,N,2,2) fields), "
                 "restarted from a snapshot"),
        Workload("dephasing_cert128", "equilibrium", 128, 194, 0, 2.5e-6,
                 "Gibbs build plus a stationarity run at 128^2: the conditional RHS "
                 "at 4x the working set, no diagnostics"),
        Workload("casimir_probe64", "casimir-check", 64, 0, 20, 2e-6,
                 "hybrid bracket and Casimir derivatives over 20 random probes"),
    )
}


def _dq(cfg):
    dom = cfg["domain"]
    return (dom["q1"] - dom["q0"]) / cfg["grid"]["Nq"]


def _shift_q(cfg, rng, max_cells=8):
    """Move the density (and loop) centre by whole grid cells in q."""
    dq = _dq(cfg) * int(rng.integers(-max_cells, max_cells + 1))
    spec = cfg["initial"]["density"]
    spec["center"] = [spec["center"][0] + dq, spec["center"][1]]
    loop = cfg["diagnostics"].get("loop")
    if loop is not None:
        loop["center"] = [loop["center"][0] + dq, loop["center"][1]]


def generate(workload, seed, rundir):
    """Write the seeded config (and any input snapshot) into ``rundir``.

    Returns the config path relative to ``rundir``.
    """
    from mqclab import config as C
    from mqclab import presets
    from mqclab.snapshots import write_snapshot

    rng = np.random.default_rng(seed)
    w = WORKLOADS[workload]
    if w.name == "nanowire_cond_loop64":
        cfg = presets.nanowire_conditional(N=w.N)
        _shift_q(cfg, rng)
    elif w.name == "beyond_restart64":
        cfg = presets.beyond_nanowire_mixed(N=w.N)
        _shift_q(cfg, rng)
        grid = C.build_grid(cfg)
        ham = C.build_hamiltonian(grid, cfg)
        write_snapshot(os.path.join(rundir, "restart_input.snap"),
                       C.build_initial_state(grid, ham, cfg))
        cfg["initial"]["snapshot"] = "restart_input.snap"
    elif w.name == "dephasing_cert128":
        # d_change_l1 moves by about 0.7 % over this mu range, steps not at all
        cfg = presets.dephasing_equilibrium(N=w.N, mu=round(float(rng.uniform(1.9, 2.1)), 6))
    else:
        # probes_seed stays at the preset default: over probe seeds the largest
        # worst_ratio ranges 4.4e-7 .. 1.3e-6, wider than any allowed bound
        cfg = presets.nanowire_conditional(N=w.N)
        cfg["diagnostics"]["n_probes"] = w.samples
        cfg["diagnostics"]["probes_seed"] = 12345
    if cfg["grid"]["Nq"] != w.N or cfg["grid"]["Np"] != w.N:
        raise ValueError(f"{workload}: generated grid is not {w.N}^2")
    with open(os.path.join(rundir, "config.yaml"), "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    return "config.yaml"


def _max_rel_drift(values):
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


def check_outputs(workload, outdir, stdout):
    """Return (invariant_err, problems) for one finished process."""
    w = WORKLOADS[workload]
    problems = []
    if w.command == "simulate":
        from mqclab.diagnostics import read_csv

        cols = read_csv(os.path.join(outdir, "diagnostics.csv"))
        err = _max_rel_drift(cols["energy"])
        mass = _max_rel_drift(cols["mass"])
        if not mass <= MASS_DRIFT_LIMIT:
            problems.append(f"mass drift {mass:.3e} > {MASS_DRIFT_LIMIT:.0e}")
        if len(cols["t"]) != w.samples:
            problems.append(f"{len(cols['t'])} samples, expected {w.samples}")
        if f" {w.steps} steps of " not in stdout:
            problems.append(f"step count is not {w.steps}: {stdout.strip()!r}")
    elif w.command == "equilibrium":
        with open(os.path.join(outdir, "equilibrium.json")) as fh:
            metrics = json.load(fh)["metrics"]
        err = float(metrics["d_change_l1"])
        if int(metrics["steps"]) != w.steps:
            problems.append(f"{metrics['steps']} stationarity steps, expected {w.steps}")
    else:
        with open(os.path.join(outdir, "casimir_report.json")) as fh:
            report = json.load(fh)
        err = max(float(v) for v in report["worst_ratio"].values())
        if int(report["n_probes"]) != w.samples or len(report["rows"]) != w.samples:
            problems.append(f"{len(report['rows'])} probes, expected {w.samples}")
    if not err > 0.0:
        problems.append(f"invariant_err {err!r} is not positive")
    if err > w.err_limit:
        problems.append(f"invariant_err {err:.3e} > {w.err_limit:.1e}")
    return err, problems


def snapshot_roundtrip(outdir, command, scratch):
    """Read each written snapshot back and re-write it; return mismatches."""
    from mqclab.snapshots import read_snapshot, write_snapshot

    bad = []
    for name in SNAPSHOTS[command]:
        src = os.path.join(outdir, name)
        dst = os.path.join(scratch, "roundtrip-" + name)
        write_snapshot(dst, read_snapshot(src))
        with open(src, "rb") as a, open(dst, "rb") as b:
            if a.read() != b.read():
                bad.append(f"{name} does not re-write byte-identically")
        os.remove(dst)
    return bad
