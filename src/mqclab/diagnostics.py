"""Diagnostic sampling and the fixed-layout CSV export.

The CSV header is frozen; diagnostics that are not defined for the running
model (or not requested) leave their cells empty. ``antiherm_resid`` is empty
for every model: the density tendency is Hermitian by construction.
"""

from __future__ import annotations

import numpy as np

from . import dynamics as _dyn
from . import invariants as _inv
from .states import (
    ConditionalSplit,
    UhlmannSplit,
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
                   c1_phi="neg_x_log_x_trace", c2_sigma="log"):
    """The per-sample row function for ``rk4_run``; a row composes its state once,
    and writes ``poincare`` when the run traces a loop (``loop_pts`` is not None)."""
    wanted = set(DEFAULT_FUNCTIONALS if functionals is None else functionals)
    phi = _inv.spectral_fn(c1_phi)
    sigma = _inv.scalar_fn(c2_sigma)
    c1 = _inv.CasimirC1(phi)
    entropy, renyi = _inv.uhlmann_entropies(_dyn.MODELS[model].state_type)

    def sample(t, state, loop_pts, velocity):
        row = {k: None for k in CSV_COLUMNS}
        row["t"] = t
        dens = state.compose()

        if "mass" in wanted:
            row["mass"] = state.mass()
        if "energy" in wanted:
            row["energy"] = _dyn.energy_of(model, dens, ham)
        if "purity" in wanted:
            row["purity"] = purity(quantum_marginal(dens))
        if "C1" in wanted:
            row["C1"] = c1.value(dens)
        if isinstance(state, UhlmannSplit):
            if "lambda" in wanted:
                row["lambda_min"] = float(np.min(state.Lambda))
                row["lambda_max"] = float(np.max(state.Lambda))
            if "C2" in wanted:
                row["C2"] = _inv.casimir_c2(state, sigma)
            if "S_pure" in wanted and isinstance(state, ConditionalSplit):
                row["S_pure"] = _inv.shannon_pure(state)
            if loop_pts is not None:
                row["poincare"] = _inv.loop_integral(state, loop_pts)
        if "S_uhlmann" in wanted and entropy is not None:
            row["S_uhlmann"] = entropy(state)
        if "renyi" in wanted and renyi is not None:
            row["renyi_alpha"] = renyi(state, renyi_alpha)
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
