"""Layer sweep: per-call time of each model RHS, the stencil and one
diagnostic row, at 64^2 and 128^2.

    python3 sweep.py OUT.json

Writes ``{metric name: ms per call}``; each figure is the median over
repeats after one warm-up call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

SIZES = (64, 128)
ROUNDS, ROUND_SECONDS = 4, 0.1


def per_call_ms(fns):
    """Median ms per call of each function.

    The layers take turns in several rounds, so a slow spell of the machine
    is shared among them instead of landing on one layer.
    """
    times = {name: [] for name in fns}
    for fn in fns.values():
        fn()  # warm-up
    for _ in range(ROUNDS):
        for name, fn in fns.items():
            start = time.perf_counter()
            while time.perf_counter() - start < ROUND_SECONDS:  # at least one call
                t0 = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t0)
    return {name: 1e3 * statistics.median(ts) for name, ts in times.items()}


def layers(N):
    from mqclab import config as C
    from mqclab import diagnostics, dynamics, presets
    from mqclab.states import compose

    def build(cfg, **initial):
        cfg = {**cfg, "initial": {**cfg["initial"], **initial}}
        grid = C.build_grid(cfg)
        ham = C.build_hamiltonian(grid, cfg)
        return grid, ham, C.build_initial_state(grid, ham, cfg)

    grid, ham, cond = build(presets.nanowire_conditional(N=N))
    _, _, mf = build(presets.nanowire_meanfield(N=N))
    _, _, uhl = build(presets.beyond_nanowire_mixed(N=N), representation="uhlmann")
    P = compose(uhl).P
    row = diagnostics.make_sample_fn("ehrenfest_conditional", ham)
    eps = 1e-12
    return {
        "grids.stencil": lambda: grid.partial_q(P),
        "dynamics.mean_field_rhs": lambda: dynamics.mean_field_rhs(grid, mf.D, mf.rho, ham),
        "dynamics.ehrenfest_rhs": lambda: dynamics.ehrenfest_rhs(grid, P, ham, eps),
        "dynamics.conditional_rhs": lambda: dynamics.conditional_rhs(grid, cond.D, cond.psi, ham),
        "dynamics.uhlmann_rhs": lambda: dynamics.uhlmann_rhs(grid, uhl.D, uhl.W, ham),
        "dynamics.beyond_ehrenfest_rhs": lambda: dynamics.beyond_ehrenfest_rhs(grid, P, ham, eps),
        "diagnostics.sample": lambda: row(0.0, cond, None, {}),
    }


def main():
    out = {}
    for N in SIZES:
        for name, ms in per_call_ms(layers(N)).items():
            out[f"{name}.n{N}.ms"] = ms
    with open(sys.argv[1], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
