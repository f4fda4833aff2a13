"""Random probe states and functionals for bracket/Casimir verification.

The general Casimirs depend on derivatives of the conditional wave operator,
so probe states are built directly from smooth (D, W) data: the deterministic
factorization gauge of ``uhlmann_factor`` is only piecewise smooth on generic
random fields and would pollute Lambda with gauge jumps.
"""

from __future__ import annotations

import numpy as np

from . import invariants as _inv
from .grids import eigen_compose, hermitize, random_band_limited
from .states import UhlmannSplit, compose


def random_smooth_split(grid, n, rng, amplitude=0.4):
    """Random full-rank (D, W) with globally smooth W and positive Lambda.

    W = exp(i S(q,p)) sqrt(diag(w)) with S a small random Hermitian field and
    CONSTANT weights w: the gauge Noether charge W^dag W is then spatially
    uniform, which is exactly the condition under which the Liouville volume
    is insensitive to the gauge convention at first order and the general
    Casimirs are well-defined functionals of the composed density. S and D
    are band-limited to |k| <= 1, and D rises from a floor of 0.3 before it
    is normalised.
    """
    S = amplitude * random_band_limited(grid, rng, kmax=1, trailing=(n, n),
                                        complex_valued=True)
    S = hermitize(S)
    w_eig, v = np.linalg.eigh(S)  # unitary field U = exp(i S)
    U = eigen_compose(v, np.exp(1j * w_eig))
    weights = np.linspace(1.5, 0.5, n)
    weights = weights / weights.sum()
    W = U * np.sqrt(weights)[None, None, None, :]

    D = 0.3 + (1.0 - 0.3) * (1.0 + random_band_limited(grid, rng, kmax=1)) / 2.0
    D = np.maximum(D, 0.1)
    D /= float(grid.integrate(D))
    return UhlmannSplit(grid, D, W)


def aligned_smooth_split(grid):
    """n = m = 2 smooth split whose canonical factorization gauge equals the
    construction: eigenvalues strictly ordered, leading components bounded
    away from zero. Used to validate derivatives against the literal
    single-point numeric variation of the composed density.
    """
    th = 0.75 + 0.35 * np.sin(grid.Q * 2 * np.pi / grid.Lq) * np.cos(grid.P * 2 * np.pi / grid.Lp)
    ph = 0.5 * np.sin(grid.P * 2 * np.pi / grid.Lp)
    w1 = 0.65  # constant spectral weight: uniform gauge Noether charge
    c, s = np.cos(th), np.sin(th)
    W = np.zeros(grid.shape + (2, 2), dtype=complex)
    W[..., 0, 0] = c * np.sqrt(w1)
    W[..., 1, 0] = s * np.exp(1j * ph) * np.sqrt(w1)
    W[..., 0, 1] = s * np.sqrt(1 - w1)
    W[..., 1, 1] = -c * np.exp(1j * ph) * np.sqrt(1 - w1)
    D = 0.3 + 0.2 * np.cos(grid.Q * 2 * np.pi / grid.Lq) * np.sin(grid.P * 2 * np.pi / grid.Lp)
    D /= float(grid.integrate(D))
    return UhlmannSplit(grid, D, W)


def random_probe_functionals(grid, n, rng, count=20, kmax=3):
    """Band-limited linear functionals f(P) = integral Re Tr(A P)."""
    probes = []
    for k in range(count):
        A = random_band_limited(grid, rng, kmax=kmax, trailing=(n, n), complex_valued=True)
        probes.append(_inv.LinearProbeFunctional(hermitize(A), name=f"probe{k}"))
    return probes


def casimir_probe_report(split, ham, rng, n_probes=20, kmax=2):
    """Bracket random functionals against the Casimir family on a state.

    ``split`` is a smooth (D, W) probe state; the report records, per probe
    f, |{{f, C}}| for each Casimir C, the no-cancellation bracket scale, and
    the antisymmetry residual (from the swapped bracket {{h, f}}, not from
    -{{f, h}}). Each functional is derived once (``bracket_operand``).
    """
    state = compose(split)
    grid = state.grid
    n = state.n
    probes = random_probe_functionals(grid, n, rng, count=n_probes, kmax=kmax)
    casimirs = {
        "C1_entropy": _inv.CasimirC1(_inv.spectral_fn("neg_x_log_x_trace")),
        "C1_quadratic": _inv.CasimirC1(_inv.spectral_fn("quadratic")),
        "C_general_entropy": _inv.CasimirGeneral(_inv.GammaSpec.entropy(), split=split),
        "C_general_renyi2": _inv.CasimirGeneral(_inv.GammaSpec.renyi(2.0), split=split),
        "C2_log": _inv.CasimirGeneral(_inv.GammaSpec.from_sigma(_inv.scalar_fn("log")),
                                      split=split),
    }
    reference = _inv.bracket_operand(_inv.EnergyFunctional(ham), state)
    # each Casimir is derived once, at its first bracket (after the first
    # hybrid_bracket call, which the benchmark takes as the end of set-up);
    # a probe is derived once per row and not kept, which bounds memory
    operands = {}

    rows = []
    anti = []
    for f in probes:
        fo = _inv.bracket_operand(f, state)
        fg, scale = _inv.hybrid_bracket(fo, reference, state, return_scale=True)
        entry = {"probe": f.name, "scale": scale}
        for cname, C in casimirs.items():
            if cname not in operands:
                operands[cname] = _inv.bracket_operand(C, state)
            entry[cname] = abs(_inv.hybrid_bracket(fo, operands[cname], state))
        rows.append(entry)
        gf = _inv.hybrid_bracket(reference, fo, state)
        anti.append(abs(fg + gf) / max(abs(fg) + scale, 1e-300))  # 0 where H = 0

    worst = {}
    for cname in casimirs:
        worst[cname] = max(r[cname] / max(r["scale"], 1e-300) for r in rows)
    return {
        "rows": rows,
        "worst_ratio": worst,
        "max_ratio": max(worst.values()),
        "antisymmetry_max": max(anti),
        "n_probes": n_probes,
    }
