"""Diagnostic sampling and the fixed-layout CSV export.

The CSV header is frozen; diagnostics that are not defined for the running
model (or not requested) leave their cells empty.
"""

from __future__ import annotations

import numpy as np

from . import dynamics as _dyn
from . import invariants as _inv
from .states import (
    ConditionalSplit,
    HybridDensity,
    UhlmannSplit,
    compose,
    purity,
    quantum_marginal,
)

CSV_COLUMNS = [
    "t", "mass", "energy", "C1", "C2", "S_pure", "S_uhlmann",
    "renyi_alpha", "purity", "lambda_min", "lambda_max", "poincare",
    "antiherm_resid",
]

DEFAULT_FUNCTIONALS = ["mass", "energy", "C1", "C2", "S_pure", "S_uhlmann", "renyi", "purity", "lambda"]


def make_sample_fn(model, ham, functionals=None, renyi_alpha=2.0,
                   c1_phi="neg_x_log_x_trace", c2_sigma="log", with_loop=False):
    """Build the per-sample diagnostic row function for ``rk4_run``."""
    wanted = set(DEFAULT_FUNCTIONALS if functionals is None else functionals)
    phi = _inv.spectral_fn(c1_phi)
    sigma = _inv.scalar_fn(c2_sigma)
    c1 = _inv.CasimirC1(phi)

    def sample(t, state, loop_pts, info):
        row = {k: None for k in CSV_COLUMNS}
        row["t"] = t
        grid = state.grid
        is_split = isinstance(state, UhlmannSplit)
        is_density = isinstance(state, HybridDensity)

        if "mass" in wanted:
            row["mass"] = state.mass() if is_density else float(grid.integrate(state.D))
        if "energy" in wanted:
            row["energy"] = _dyn.energy_of(model, state, ham)
        if "purity" in wanted:
            row["purity"] = purity(quantum_marginal(state)) if not isinstance(
                state, _dyn.MeanFieldState
            ) else purity(state.rho)
        if "C1" in wanted and (is_density or is_split):
            dens = state if is_density else compose(state)
            row["C1"] = c1.value(dens)
        if is_split:
            if "lambda" in wanted:
                row["lambda_min"] = float(np.min(state.Lambda))
                row["lambda_max"] = float(np.max(state.Lambda))
            if "C2" in wanted:
                row["C2"] = _inv.casimir_c2(state, sigma).value
            if "S_pure" in wanted and isinstance(state, ConditionalSplit):
                row["S_pure"] = _inv.shannon_pure(state).value
            if "S_uhlmann" in wanted:
                row["S_uhlmann"] = _inv.entropy_uhlmann(state).value
            if "renyi" in wanted:
                row["renyi_alpha"] = _inv.renyi_mqc(state, renyi_alpha).value
            if with_loop and loop_pts is not None:
                row["poincare"] = _inv.loop_integral(state, loop_pts)
        elif isinstance(state, _dyn.MeanFieldState):
            if "S_uhlmann" in wanted:
                # the mean-field state is the grad-W = 0 reduction, where the
                # Uhlmann entropy equals the mean-field entropy identically
                row["S_uhlmann"] = _inv.entropy_meanfield(grid, state.D, state.rho)
            if "renyi" in wanted:
                row["renyi_alpha"] = _inv.renyi_meanfield(grid, state.D, state.rho, renyi_alpha)
        if "antiherm_resid" in info:
            row["antiherm_resid"] = info["antiherm_resid"]
        return row

    return sample


def _cell(v):
    if v is None:
        return ""
    return format(float(v), ".17g")


def rows_to_csv(rows):
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        out.append(",".join(_cell(row.get(k)) for k in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def read_csv(path):
    """Read a diagnostics CSV back into a dict of float arrays (nan = empty)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in fh:
            vals = line.rstrip("\n").split(",")
            for h, v in zip(header, vals):
                cols[h].append(float(v) if v else float("nan"))
    return {h: np.array(v) for h, v in cols.items()}
