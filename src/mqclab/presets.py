"""Canonical scenario configurations.

These dictionaries are valid scenario configs (the YAML files in the README
are just these, serialized); the verification suite runs the same scenarios.
All of them live on seam-free trigonometric Hamiltonians unless stated
otherwise, so the periodic truncation is exact rather than approximate.
"""

from __future__ import annotations

import numpy as np

PI = float(np.pi)


def _domain(L=2 * PI):
    h = L / 2
    return {"q0": -h, "q1": h, "p0": -h, "p1": h}


def nanowire_conditional(N=64, cfl=0.2, t_final=2 * PI, sample_every=8,
                         sigma=(0.7, 0.55), center=(0.0, 1.0), loop=True):
    """Trig-confined nanowire, Ehrenfest conditional model, spin-up start.

    The Hamiltonian has no q-dependence, so the flow shears D in q while the
    conditional state precesses pointwise in p: decoherence of the quantum
    marginal with every split-representation invariant analytically constant.
    """
    cfg = {
        "domain": _domain(),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "model": "ehrenfest_conditional",
        "time": {"cfl": cfl, "t_final": t_final, "sample_every": sample_every},
        "hamiltonian": {"kind": "nanowire", "mass": 1.0, "eta": 0.5, "B": 0.3, "trig": True},
        "initial": {
            "representation": "conditional",
            "density": {"profile": "von_mises", "center": list(center),
                        "kappa": [1.0 / sigma[0] ** 2, 1.0 / sigma[1] ** 2]},
            "state": {"profile": "constant", "vector": [[1.0, 0.0], [0.0, 0.0]]},
        },
        "diagnostics": {
            "functionals": ["mass", "energy", "C1", "C2", "S_pure", "S_uhlmann",
                            "renyi", "purity", "lambda"],
            "renyi_alpha": 2.0,
        },
    }
    if loop:
        cfg["diagnostics"]["loop"] = {"center": list(center), "radius": 0.6, "points": 256}
    return cfg


def nanowire_meanfield(N=64):
    """Mean-field twin of the nanowire scenario (same initial data).

    Runs at a smaller CFL number: the classic-RK4 unitarity defect on the
    quantum factor sits near 1e-11 at CFL 0.2, which would mask the exact
    purity conservation this scenario certifies.
    """
    cfg = nanowire_conditional(N=N, cfl=0.05, sample_every=16, loop=False)
    cfg["model"] = "mean_field"
    cfg["initial"] = {
        "representation": "mean_field",
        "density": cfg["initial"]["density"],
        "rho": {"profile": "marginal_of_state",
                "state": {"profile": "constant", "vector": [[1.0, 0.0], [0.0, 0.0]]}},
    }
    cfg["diagnostics"] = {"functionals": ["mass", "energy", "purity", "S_uhlmann", "renyi"]}
    return cfg


def nanowire_twisted(N=64, cfl=0.2, t_final=1.0, sample_every=4, amplitude=0.5):
    """Nanowire with a q-and-p-twisted conditional state: nontrivial Berry
    curvature and Liouville volume, used for the transport-law studies."""
    cfg = nanowire_conditional(N=N, cfl=cfl, t_final=t_final, sample_every=sample_every,
                               sigma=(0.8, 0.6), center=(0.0, 0.8), loop=False)
    cfg["initial"]["state"] = {"profile": "twisted", "k": 1, "l": 1,
                               "amplitude": amplitude, "center": [0.0, 0.0]}
    return cfg


def dephasing_equilibrium(N=64, mu=2.0, omega=0.4, coupling=0.2, branch=1):
    """Pure-dephasing Hamiltonian with a soft periodic well.

    H = trig_well(omega) 1 + coupling sin(q) sigma_z; the branch Gibbs state
    lives on the whole torus (no truncation issue by construction).
    """
    return {
        "domain": _domain(),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "model": "ehrenfest_conditional",
        "time": {"cfl": 0.2, "t_final": 2 * PI, "sample_every": 8},
        "hamiltonian": {
            "kind": "pure_dephasing",
            "h_0": {"name": "trig_well", "omega": omega},
            "h_i": {"name": "sin_q", "amplitude": coupling},
            "A": "sigma_z",
        },
        "initial": {
            "representation": "conditional",
            "density": {"profile": "von_mises", "center": [0.0, 0.0], "kappa": [1.0, 1.0]},
            "state": {"profile": "constant", "vector": [[1.0, 0.0], [0.0, 0.0]]},
        },
        "diagnostics": {"functionals": ["mass", "energy", "C2", "S_pure", "purity", "lambda"]},
        "equilibrium": {"representation": "conditional", "mu": mu, "branch": branch},
    }


def harmonic_gibbs(N=64, L=16.0, E=0.5):
    """True harmonic well on a large domain for the mu(E) inversion.

    The polynomial well has a derivative kink at the seam; the Gibbs weight
    there is below 1e-10 for any mu >= 0.05, keeping the truncation error
    subdominant as required.
    """
    return {
        "domain": _domain(L),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "hamiltonian": {
            "kind": "pure_dephasing",
            "h_0": {"name": "harmonic", "omega": 1.0},
            "h_i": {"name": "zero"},
            "A": "sigma_z",
        },
        "equilibrium": {"representation": "conditional", "E": E, "branch": 0},
    }


def classical_well(N=64, omega=0.5, t_final=1.0, model="beyond_ehrenfest"):
    """Classical-only Hamiltonian (H = trig_well 1): every hybrid model must
    reduce to Liouville transport of D here."""
    return {
        "domain": _domain(),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "model": model,
        "time": {"cfl": 0.2, "t_final": t_final, "sample_every": 8},
        "hamiltonian": {
            "kind": "uncoupled",
            "h_c": {"name": "trig_well", "omega": omega},
            "H_Q": [[0.0, 0.0], [0.0, 0.0]],
        },
        "initial": {
            "representation": "density",
            "compose_from": "uhlmann",
            "density": {"profile": "von_mises", "center": [0.0, 0.0],
                        "kappa": [1.0 / 0.9 ** 2, 1.0 / 0.9 ** 2]},
            "waveop": {"profile": "constant",
                       "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        },
        "diagnostics": {"functionals": ["mass", "energy", "C1", "purity"]},
    }


def uncoupled_factorized(N=64, cfl=0.1):
    """Uncoupled H with factorized initial density: the Ehrenfest flow keeps
    the factorized form, and the split entropies reduce to the mean-field
    entropy identically."""
    return {
        "domain": _domain(),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "model": "ehrenfest_density",
        "time": {"cfl": cfl, "t_final": 2 * PI, "sample_every": 8},
        "hamiltonian": {
            "kind": "uncoupled",
            "h_c": {"name": "trig_well", "omega": 1.0},
            "H_Q": "sigma_x",
        },
        "initial": {
            "representation": "density",
            "compose_from": "uhlmann",
            "density": {"profile": "von_mises", "center": [0.0, 0.0], "kappa": [1.5625, 1.5625]},
            "waveop": {"profile": "constant",
                       "matrix": [[[0.8944271909999159, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [0.4472135954999579, 0.0]]]},
        },
        "diagnostics": {"functionals": ["mass", "energy", "C1", "purity"]},
    }


def beyond_nanowire_mixed(N=64, cfl=0.15, t_final=1.0, sample_every=4):
    """Beyond-Ehrenfest model on the nanowire with a mixed, gradient-carrying
    initial density (eigen-mix wave operator)."""
    return {
        "domain": _domain(),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "model": "beyond_ehrenfest",
        "time": {"cfl": cfl, "t_final": t_final, "sample_every": sample_every},
        "hamiltonian": {"kind": "nanowire", "mass": 1.0, "eta": 0.5, "B": 0.3, "trig": True},
        "initial": {
            "representation": "density",
            "compose_from": "uhlmann",
            "density": {"profile": "von_mises", "center": [0.0, 0.8],
                        "kappa": [1.5625, 2.7778], "uniform_weight": 0.1},
            "waveop": {"profile": "eigen_mix", "weights": [0.7, 0.3]},
        },
        "diagnostics": {"functionals": ["mass", "energy", "C1", "purity"]},
    }


def zeta_sigma_z(N=64):
    """H = zeta(q,p) sigma_z with zeta a sin^2 landscape: the zeta-composed
    equilibrium family with eigenvector fields varying over phase space."""
    return {
        "domain": _domain(),
        "grid": {"Nq": N, "Np": N, "n": 2, "m": 2},
        "physics": {"hbar": 1.0},
        "model": "ehrenfest_conditional",
        "time": {"cfl": 0.2, "t_final": 1.0, "sample_every": 4},
        "hamiltonian": {
            "kind": "zeta_composed",
            "zeta": {"name": "sin2_well", "amplitude": 0.5},
            "coeffs": [[[0.0, 0.3], [0.3, 0.0]], "sigma_z"],
        },
        "initial": {
            "representation": "conditional",
            "density": {"profile": "von_mises", "center": [0.0, 0.0], "kappa": [1.0, 1.0]},
            "state": {"profile": "eigen", "branch": 0},
        },
        "diagnostics": {"functionals": ["mass", "energy", "C2", "S_pure", "lambda"]},
        "equilibrium": {"representation": "conditional", "mu": 1.5, "branch": 0},
    }
