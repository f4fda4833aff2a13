"""Versioned text snapshots of hybrid states.

Line 1:   ``MQCGRID 1 <rep> <Nq> <Np> <n> <m> <q0> <q1> <p0> <p1> <hbar>``
Then one record per grid point in row-major (i, j) order. Records hold
real/imag pairs of all matrix entries (row-major); split representations
store D first, then the psi / W entries; any other state is written as its
density ``compose()``. All floats carry 17 significant digits, so
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .grids import PhaseGrid
from .states import ConditionalSplit, HybridDensity, UhlmannSplit

MAGIC = "MQCGRID"
VERSION = 1
FLOAT = "%.17g"


def _rep_of(state):
    if isinstance(state, ConditionalSplit):
        return "conditional"
    if isinstance(state, UhlmannSplit):
        return "uhlmann"
    return "density"


def _table(state, rep):
    """The records as one (Nq*Np, k) float table: D first for the splits,
    then the real/imag pairs of the matrix entries."""
    rows = state.grid.Nq * state.grid.Np
    entries = state.P if rep == "density" else state.W
    pairs = np.ascontiguousarray(entries).reshape(rows, -1).view(float)
    if rep == "density":
        return pairs
    return np.concatenate([np.reshape(state.D, (rows, 1)), pairs], axis=1)


def snapshot_lines(state):
    rep = _rep_of(state)
    if rep == "density":  # a mean-field state as its density D rho
        state = state.compose()
    grid = state.grid
    # density and conditional headers repeat n in the m slot
    m = state.m if rep == "uhlmann" else state.n
    header = " ".join(
        [MAGIC, str(VERSION), rep, str(grid.Nq), str(grid.Np), str(state.n), str(m)]
        + [FLOAT % v for v in (grid.q0, grid.q1, grid.p0, grid.p1, grid.hbar)]
    )
    table = _table(state, rep)
    # one "%" over the whole body
    body = "\n".join([" ".join([FLOAT] * table.shape[1])] * table.shape[0])
    return [header] + (body % tuple(table.ravel().tolist())).split("\n")


def write_snapshot(path, state):
    with open(path, "w") as fh:
        fh.write("\n".join(snapshot_lines(state)))
        fh.write("\n")


def read_snapshot(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 12 or header[0] != MAGIC:
            raise ValueError(f"{path}: not a {MAGIC} snapshot")
        if int(header[1]) != VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {header[1]}")
        rep = header[2]
        Nq, Np, n, m = (int(v) for v in header[3:7])
        q0, q1, p0, p1, hbar = (float(v) for v in header[7:12])

        # a conditional record holds psi, the single column of its W
        shapes = {"density": (n, n), "conditional": (n, 1), "uhlmann": (n, m)}
        if rep not in shapes:
            raise ValueError(f"{path}: unknown representation '{rep}'")
        records = [line.split() for _, line in zip(range(Nq * Np), fh)]

    lead = 0 if rep == "density" else 1  # the D column of a split
    expect = lead + 2 * n * shapes[rep][1]
    # a truncated body ends in an empty record, checked before the header's grid is built
    bad = next((r for r, vals in enumerate(records) if len(vals) != expect), len(records))
    if bad < Nq * Np:
        i, j = divmod(bad, Np)
        got = len(records[bad]) if bad < len(records) else 0
        raise ValueError(f"{path}: record ({i},{j}) has {got} numbers, expected {expect}")
    grid = PhaseGrid(q0, q1, p0, p1, Nq, Np, hbar=hbar)
    table = np.array(records, dtype=float)
    data = np.ascontiguousarray(table[:, lead:]).view(complex)
    data = data.reshape((Nq, Np) + shapes[rep])
    if rep == "density":
        return HybridDensity(grid, data)
    D = np.ascontiguousarray(table[:, 0]).reshape(Nq, Np)
    if rep == "conditional":
        return ConditionalSplit(grid, D, data[..., 0])
    return UhlmannSplit(grid, D, data)
