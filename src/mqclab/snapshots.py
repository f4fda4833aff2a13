"""Versioned text snapshots of hybrid states.

Line 1:   ``MQCGRID 1 <rep> <Nq> <Np> <n> <m> <q0> <q1> <p0> <p1> <hbar>``
Then one record per grid point in row-major (i, j) order. Records hold
real/imag pairs of all matrix entries (row-major); split representations
store D first, then the psi / W entries. All floats carry 17 significant
digits, so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .grids import PhaseGrid
from .states import ConditionalSplit, HybridDensity, UhlmannSplit

MAGIC = "MQCGRID"
VERSION = 1


def _fmt(x):
    return format(float(x), ".17g")


def _rep_of(state):
    if isinstance(state, HybridDensity):
        return "density"
    if isinstance(state, ConditionalSplit):
        return "conditional"
    if isinstance(state, UhlmannSplit):
        return "uhlmann"
    raise TypeError(f"cannot snapshot {type(state).__name__}")


def snapshot_lines(state):
    grid = state.grid
    rep = _rep_of(state)
    # density and conditional headers repeat n in the m slot
    m = state.m if rep == "uhlmann" else state.n
    header = " ".join(
        [MAGIC, str(VERSION), rep, str(grid.Nq), str(grid.Np), str(state.n), str(m)]
        + [_fmt(v) for v in (grid.q0, grid.q1, grid.p0, grid.p1, grid.hbar)]
    )
    lines = [header]
    for i in range(grid.Nq):
        for j in range(grid.Np):
            if rep == "density":
                entries = state.P[i, j].reshape(-1)
                nums = []
            else:
                entries = state.W[i, j].reshape(-1)
                nums = [_fmt(state.D[i, j])]
            for z in entries:
                nums.append(_fmt(z.real))
                nums.append(_fmt(z.imag))
            lines.append(" ".join(nums))
    return lines


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
        grid = PhaseGrid(q0, q1, p0, p1, Nq, Np, hbar=hbar)

        # a conditional record holds psi, the single column of its W
        shapes = {"density": (n, n), "conditional": (n, 1), "uhlmann": (n, m)}
        if rep not in shapes:
            raise ValueError(f"{path}: unknown representation '{rep}'")
        data = np.empty((Nq, Np) + shapes[rep], dtype=complex)
        D = None if rep == "density" else np.empty((Nq, Np))

        per_entry = data[0, 0].size
        for i in range(Nq):
            for j in range(Np):
                vals = fh.readline().split()
                expect = 2 * per_entry + (0 if D is None else 1)
                if len(vals) != expect:
                    raise ValueError(
                        f"{path}: record ({i},{j}) has {len(vals)} numbers, expected {expect}"
                    )
                k = 0
                if D is not None:
                    D[i, j] = float(vals[0])
                    k = 1
                raw = np.array([float(v) for v in vals[k:]])
                data[i, j] = raw.view(complex).reshape(data[i, j].shape)

    if rep == "density":
        return HybridDensity(grid, data)
    if rep == "conditional":
        return ConditionalSplit(grid, D, data[..., 0])
    return UhlmannSplit(grid, D, data)
