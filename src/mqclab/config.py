"""Scenario configuration: YAML sections -> runtime objects.

Sections: ``domain`` (q0,q1,p0,p1), ``grid`` (Nq,Np,n[,m]), ``physics``
(hbar), ``time`` (dt or cfl, steps or t_final, sample_every, renormalize),
``model``, ``hamiltonian`` (kind + parameters), ``initial`` (representation +
profile specs), ``diagnostics`` (functional list, loop spec, probe seed) and
``equilibrium`` (representation, E or mu, branch). Missing keys raise
``ConfigError`` carrying the dotted key path.
"""

from __future__ import annotations

import numpy as np
import yaml

from . import hamiltonians as _ham
from .diagnostics import DEFAULT_FUNCTIONALS, make_sample_fn
from .dynamics import MODELS, StepperConfig, cfl_dt, circle_loop
from .equilibria import MaxEntProblem, ProblemError
from .grids import MIN_POINTS, NotHermitianError, PhaseGrid, hermitize, require_hermitian
from .hamiltonians import eigenfields
from .invariants import scalar_fn, spectral_fn
from .snapshots import read_snapshot
from .states import (ConditionalSplit, HybridDensity, MeanFieldState, UhlmannSplit,
                     UnphysicalStateError, quantum_marginal)

# Largest max|P - D rho| / max|P| at which a density snapshot still counts as
# the product state D rho of a mean-field run.
MEANFIELD_FACTOR_TOL = 1e-10


class ConfigError(ValueError):
    def __init__(self, path, message="missing or invalid key"):
        super().__init__(f"{message}: {path}")
        self.path = path


def load_config(path):
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return cfg


def require(cfg, path, kind=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(path)
        node = node[part]
    if kind is not None:
        try:
            node = kind(node)
        except (TypeError, ValueError):
            raise ConfigError(path, "wrong type") from None
    return node


def get(cfg, path, default=None):
    try:
        return require(cfg, path)
    except ConfigError:
        return default


def positive(cfg, path, kind=float):
    """The number at ``path`` as ``kind`` (None when absent); it must be positive."""
    if get(cfg, path) is None:
        return None
    value = require(cfg, path, kind)
    if not value > 0:
        raise ConfigError(path, "must be positive")
    return value


def build_grid(cfg) -> PhaseGrid:
    for path in ("grid.Nq", "grid.Np"):
        if require(cfg, path, int) < MIN_POINTS:
            raise ConfigError(path, f"the stencils need at least {MIN_POINTS} points")
    bounds = {key: require(cfg, f"domain.{key}", float) for key in ("q0", "q1", "p0", "p1")}
    for lo, hi in (("q0", "q1"), ("p0", "p1")):
        if not bounds[hi] > bounds[lo]:
            raise ConfigError(f"domain.{hi}", f"must exceed domain.{lo}")
    return PhaseGrid(**bounds, Nq=require(cfg, "grid.Nq", int), Np=require(cfg, "grid.Np", int),
                     hbar=positive(cfg, "physics.hbar") or 1.0)


def build_hamiltonian(grid, cfg) -> _ham.Hamiltonian:
    spec = require(cfg, "hamiltonian", dict)
    for key in ("eta", "B", "center_p"):  # the nanowire's numbers
        if spec.get(key) is not None:
            spec[key] = require(cfg, f"hamiltonian.{key}", float)
    if spec.get("mass") is not None:
        spec["mass"] = positive(cfg, "hamiltonian.mass")
    for key in ("H_Q", "A"):  # the quantum operators of the uncoupled and dephasing kinds
        if key in spec:
            _check_hermitian(spec[key], f"hamiltonian.{key}")
    if "coeffs" in spec:  # the zeta-composed kind's A_k, all of one size
        coeffs = spec["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("hamiltonian.coeffs", "expected a list of matrices")
        if len({_check_hermitian(c, f"hamiltonian.coeffs.{k}") for k, c in enumerate(coeffs)}) > 1:
            raise ConfigError("hamiltonian.coeffs", "the matrices differ in size")
    try:
        return _ham.build(grid, spec)
    except KeyError as exc:
        raise ConfigError(f"hamiltonian.{exc.args[0]}") from None
    except _ham.UnsupportedHamiltonianError as exc:
        path = "hamiltonian.kind" if spec.get("kind") not in _ham.KINDS else "hamiltonian"
        raise ConfigError(path, str(exc)) from None


def _check_hermitian(data, path):
    """The shape of ``data``, which must be a square Hermitian matrix: a named
    one, rows of numbers or rows of [re, im] pairs (the builder parses it
    again)."""
    try:
        M = _ham._matrix_arg(data)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a square matrix")
        require_hermitian(M)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None
    return M.shape


def _complex_array(data, path):
    """Complex entries are [re, im] pairs at the innermost level, e.g. a
    2-vector is [[1.0, 0.0], [0.0, 0.0]]."""
    try:
        arr = np.asarray(data, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != 2:
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(path, "complex values must be [re, im] pairs") from None
    return arr[..., 0] + 1j * arr[..., 1]


def _unit(values, path):
    """``values`` divided by its norm, which must not be zero."""
    norm = np.linalg.norm(values)
    if not norm > 0:
        raise ConfigError(path, "must not be zero")
    return values / norm


def _number(spec, key, default, path, kind=float):
    """``spec[key]`` as ``kind``, or ``default`` when it is absent."""
    try:
        return kind(spec.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", "wrong type") from None


def _pair(spec, key, default, path):
    """The two numbers at ``spec[key]``, or ``default`` when it is absent."""
    try:
        a, b = spec.get(key, default)
        return float(a), float(b)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", "expected a pair of numbers") from None


def _density_profile(grid, spec, path):
    name = spec.get("profile")
    if name == "gaussian":
        qc, pc = _pair(spec, "center", (0.0, 0.0), path)
        sq, sp = _pair(spec, "sigma", (1.0, 1.0), path)
        D = np.exp(
            -0.5 * ((grid.Q - qc) / sq) ** 2 - 0.5 * ((grid.P - pc) / sp) ** 2
        )
    elif name == "von_mises":
        # torus-native Gaussian: exp(kappa (cos(k dx) - 1)), seam-smooth by
        # construction, width ~ 1/sqrt(kappa) near the peak
        qc, pc = _pair(spec, "center", (0.0, 0.0), path)
        kq, kp = _pair(spec, "kappa", (2.0, 2.0), path)
        aq = 2 * np.pi / grid.Lq
        ap = 2 * np.pi / grid.Lp
        D = np.exp(
            kq * (np.cos(aq * (grid.Q - qc)) - 1.0) / aq**2
            + kp * (np.cos(ap * (grid.P - pc)) - 1.0) / ap**2
        )
    elif name == "uniform":
        D = np.ones(grid.shape)
    elif name == "double_gaussian":
        D = np.zeros(grid.shape)
        for k, bump in enumerate(spec.get("bumps", [])):
            qc, pc = _pair(bump, "center", (0.0, 0.0), f"{path}.bumps.{k}")
            sq, sp = _pair(bump, "sigma", (1.0, 1.0), f"{path}.bumps.{k}")
            w = _number(bump, "weight", 1.0, f"{path}.bumps.{k}")
            D += w * np.exp(
                -0.5 * ((grid.Q - qc) / sq) ** 2 - 0.5 * ((grid.P - pc) / sp) ** 2
            )
    else:
        raise ConfigError(f"{path}.profile", f"unknown density profile '{name}'")
    D = D / float(grid.integrate(D))
    w = _number(spec, "uniform_weight", 0.0, path)
    if w > 0.0:
        D = (1.0 - w) * D + w / grid.area
    return D


def _state_profile(grid, ham, spec, path):
    name = spec.get("profile")
    if name == "constant":
        vec = _complex_array(require_spec(spec, "vector", path), f"{path}.vector")
        vec = _unit(vec, f"{path}.vector")
        return np.broadcast_to(vec, grid.shape + vec.shape).copy()
    if name == "eigen":
        branch = _number(spec, "branch", 0, path, int)
        if not 0 <= branch < ham.n:
            raise ConfigError(f"{path}.branch", f"branch {branch} outside quantum dimension {ham.n}")
        return np.ascontiguousarray(eigenfields(ham).state(branch))
    if name == "twisted":
        # periodic for any amplitude: the mixing angle is itself a periodic
        # function of p, theta = amplitude * sin(k kappa_p (p - pc))
        k = _number(spec, "k", 1, path, int)
        ell = _number(spec, "l", 1, path, int)
        qc, pc = _pair(spec, "center", (0.5 * (grid.q0 + grid.q1), 0.5 * (grid.p0 + grid.p1)),
                       path)
        amp = _number(spec, "amplitude", 1.0, path)
        th = amp * np.sin(k * (2 * np.pi / grid.Lp) * (grid.P - pc))
        ph = ell * (2 * np.pi / grid.Lq) * (grid.Q - qc)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(th)
        psi[..., 1] = np.exp(1j * ph) * np.sin(th)
        return psi
    raise ConfigError(f"{path}.profile", f"unknown state profile '{name}'")


def _waveop_profile(grid, ham, spec, m, path):
    name = spec.get("profile")
    n = ham.n
    if name == "constant":
        W = _unit(_complex_array(require_spec(spec, "matrix", path), f"{path}.matrix"),
                  f"{path}.matrix")
        return np.broadcast_to(W, grid.shape + W.shape).copy()
    if name == "eigen_mix":
        try:
            weights = [float(w) for w in require_spec(spec, "weights", path)]
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.weights", "expected a list of numbers") from None
        if len(weights) > m:
            raise ConfigError(f"{path}.weights", "more weights than ancilla columns")
        if not (all(0.0 <= w < np.inf for w in weights) and sum(weights) > 0.0):
            raise ConfigError(f"{path}.weights", "must be finite, non-negative, not all zero")
        total = sum(weights)
        eig = eigenfields(ham)
        W = np.zeros(grid.shape + (n, m), dtype=complex)
        for b, w in enumerate(weights):
            W[..., :, b] = np.sqrt(w / total) * eig.state(b)
        return W
    if name == "embed_state":
        psi = _state_profile(grid, ham, require_spec(spec, "state", path), f"{path}.state")
        W = np.zeros(grid.shape + (n, m), dtype=complex)
        W[..., :, 0] = psi
        return W
    raise ConfigError(f"{path}.profile", f"unknown wave-operator profile '{name}'")


def require_spec(spec, key, path):
    if key not in spec:
        raise ConfigError(f"{path}.{key}")
    return spec[key]


def build_initial_state(grid, ham, cfg):
    """Returns the initial state object matching initial.representation, in
    the quantum dimension of the Hamiltonian."""
    state = _initial_state(grid, ham, cfg)
    if state.n != ham.n:
        if "snapshot" in cfg["initial"]:
            path = "initial.snapshot"
        else:  # the Hamiltonian's matrix, where the config gives one
            path = next((f"hamiltonian.{key}" for key in ("H_Q", "A", "coeffs")
                         if key in cfg["hamiltonian"]), "initial")
        raise ConfigError(path, f"the state has quantum dimension {state.n}, "
                                f"the Hamiltonian {ham.n}")
    return state


def _initial_state(grid, ham, cfg):
    init = require(cfg, "initial")
    rep = require(cfg, "initial.representation")
    if "snapshot" in init:
        try:
            state = read_snapshot(init["snapshot"])
        except (OSError, ValueError) as exc:
            raise ConfigError("initial.snapshot", str(exc)) from None
        if not state.grid.compatible(grid):
            raise ConfigError("initial.snapshot", "snapshot grid does not match config")
        if rep == "mean_field" and isinstance(state, HybridDensity):
            state = _meanfield_factors(state)
        # the physics of the state; a run's own snapshot drifts in norm and mass
        return _validated(state, "initial.snapshot", normalized=False)
    if rep == "conditional":
        D = _density_profile(grid, require(cfg, "initial.density", dict), "initial.density")
        psi = _state_profile(grid, ham, require(cfg, "initial.state", dict), "initial.state")
        return ConditionalSplit(grid, D, psi)
    if rep == "uhlmann":
        m = ham.n if get(cfg, "grid.m") is None else require(cfg, "grid.m", int)
        D = _density_profile(grid, require(cfg, "initial.density", dict), "initial.density")
        W = _waveop_profile(grid, ham, require(cfg, "initial.waveop", dict), m, "initial.waveop")
        return UhlmannSplit(grid, D, W)
    if rep == "density":
        sub = {**init, "representation": init.get("compose_from", "conditional")}
        if sub["representation"] not in ("conditional", "uhlmann", "mean_field"):
            raise ConfigError("initial.compose_from", "must be conditional, uhlmann or mean_field")
        return _initial_state(grid, ham, {**cfg, "initial": sub}).compose()
    if rep == "mean_field":
        D = _density_profile(grid, require(cfg, "initial.density", dict), "initial.density")
        rho_spec = require(cfg, "initial.rho", dict)
        if "matrix" in rho_spec:
            rho = _complex_array(rho_spec["matrix"], "initial.rho.matrix")
            if rho.shape != (ham.n, ham.n):
                raise ConfigError("initial.rho.matrix", f"expected a {ham.n} x {ham.n} matrix")
            rho = hermitize(rho)
            trace = np.real(np.trace(rho))
            if not trace > 0:
                raise ConfigError("initial.rho.matrix", "must have a positive trace")
            rho = rho / trace
        elif rho_spec.get("profile") == "marginal_of_state":
            psi = _state_profile(grid, ham, require_spec(rho_spec, "state", "initial.rho"),
                                 "initial.rho.state")
            rho = quantum_marginal(ConditionalSplit(grid, D, psi))
        else:
            raise ConfigError("initial.rho", "give a matrix or profile=marginal_of_state")
        key = "initial.rho.matrix" if "matrix" in rho_spec else "initial.rho"
        return _validated(MeanFieldState(grid, D, rho), key)
    raise ConfigError("initial.representation", f"unknown representation '{rep}'")


def _validated(state, path, normalized=True):
    """``state`` once its ``validate`` passes; a failure exits at ``path``."""
    try:
        return state.validate(normalized)
    except (UnphysicalStateError, NotHermitianError) as exc:
        raise ConfigError(path, str(exc)) from None


def _meanfield_factors(density):
    """The mean-field state (D, rho) of a density snapshot P = D rho:
    D = Tr P and rho = integral P / integral D. A P farther than
    ``MEANFIELD_FACTOR_TOL`` from D rho exits at ``initial.snapshot``."""
    grid, P, D = density.grid, density.P, density.D
    state = MeanFieldState(grid, D, hermitize(grid.integrate(P) / grid.integrate(D)))
    deviation = float(np.max(np.abs(P - state.compose().P)))
    scale = float(np.max(np.abs(P)))
    if not deviation <= MEANFIELD_FACTOR_TOL * scale:
        raise ConfigError("initial.snapshot",
                          f"the density is not a product D rho (deviation {deviation:.3e}, "
                          f"above {MEANFIELD_FACTOR_TOL:.0e} of max|P| = {scale:.3e})")
    return state


def model_of(cfg, override=None):
    model = override or get(cfg, "model")
    if model is None:
        raise ConfigError("model")
    if model not in MODELS:
        raise ConfigError("model", f"unknown model '{model}'")
    return model


def build_stepper(cfg, grid, ham, model, state) -> StepperConfig:
    state_type = MODELS[model].state_type
    if not isinstance(state, state_type):
        raise ConfigError("model", f"model '{model}' evolves a {state_type.__name__}, "
                                   f"the initial state is a {type(state).__name__}")
    dt = positive(cfg, "time.dt")
    steps = None if get(cfg, "time.steps") is None else require(cfg, "time.steps", int)
    if steps is not None and steps < 0:
        raise ConfigError("time.steps", "must not be negative")
    cfl = positive(cfg, "time.cfl")
    t_final = positive(cfg, "time.t_final")
    sample_every = positive(cfg, "time.sample_every", int) or 1
    if dt is None:
        if cfl is None:
            raise ConfigError("time.dt", "give dt or cfl")
        dt = cfl_dt(model, state, ham, cfl)
        if t_final is not None:
            steps = max(int(np.ceil(t_final / dt)), 1)
            dt = t_final / steps
    if steps is None:
        if t_final is None:
            raise ConfigError("time.steps", "give steps or t_final")
        steps = max(int(round(t_final / dt)), 1)
    return StepperConfig(
        dt=dt,
        steps=steps,
        sample_every=sample_every,
        renormalize=bool(get(cfg, "time.renormalize", False)),
    )


def build_loop(cfg):
    if get(cfg, "diagnostics.loop") is None:
        return None
    spec = require(cfg, "diagnostics.loop", dict)
    center = _pair(spec, "center", (0.0, 0.0), "diagnostics.loop")
    radius = require(cfg, "diagnostics.loop.radius", float) if "radius" in spec else 0.5
    if not 0.0 < radius < np.inf:
        raise ConfigError("diagnostics.loop.radius", "must be positive and finite")
    K = require(cfg, "diagnostics.loop.points", int) if "points" in spec else 256
    if K < 3:  # fewer points enclose no area
        raise ConfigError("diagnostics.loop.points", "need at least 3 points")
    return circle_loop(center, radius, K)


def build_sample_fn(cfg, model, ham, with_loop=False):
    """The row function of the ``diagnostics`` section, every key checked first."""
    spec = require(cfg, "diagnostics", dict) if get(cfg, "diagnostics") else {}
    functionals = spec.get("functionals")
    if functionals is not None and (not isinstance(functionals, list)
                                    or any(f not in DEFAULT_FUNCTIONALS for f in functionals)):
        raise ConfigError("diagnostics.functionals", f"expected names from {DEFAULT_FUNCTIONALS}")
    alpha = require(cfg, "diagnostics.renyi_alpha", float) if "renyi_alpha" in spec else 2.0
    if alpha == 1.0:
        raise ConfigError("diagnostics.renyi_alpha", "must differ from 1")
    names = {"c1_phi": spec.get("c1_phi", "neg_x_log_x_trace"),
             "c2_sigma": spec.get("c2_sigma", "log")}
    for key, make in (("c1_phi", spectral_fn), ("c2_sigma", scalar_fn)):
        try:
            make(names[key])
        except ValueError as exc:
            raise ConfigError(f"diagnostics.{key}", str(exc)) from None
    return make_sample_fn(model, ham, functionals, alpha, with_loop=with_loop, **names)


def probe_spec(cfg, ham):
    """(seed, count, n) of the ``casimir-check`` probes; ``grid.n`` must be ``ham.n``."""
    spec = require(cfg, "diagnostics", dict) if get(cfg, "diagnostics") else {}
    seed = require(cfg, "diagnostics.probes_seed", int) if "probes_seed" in spec else 12345
    if seed < 0:
        raise ConfigError("diagnostics.probes_seed", "must be a non-negative integer")
    n = require(cfg, "grid.n", int)
    if n != ham.n:
        raise ConfigError("grid.n", f"the state has quantum dimension {n}, the Hamiltonian {ham.n}")
    return seed, positive(cfg, "diagnostics.n_probes", int) or 20, n


def problem_path(key):
    """Config key path of the ``MaxEntProblem`` field a ``ProblemError`` names."""
    return "hamiltonian" if key == "ham" else f"equilibrium.{key}"


def build_problem(grid, ham, cfg) -> MaxEntProblem:
    eq = require(cfg, "equilibrium", dict)

    def optional(key, kind):
        return None if eq.get(key) is None else require(cfg, f"equilibrium.{key}", kind)

    try:
        return MaxEntProblem(
            representation=require(cfg, "equilibrium.representation"),
            ham=ham,
            E=optional("E", float),
            mu=optional("mu", float),
            branch=optional("branch", int) or 0,
        )
    except ProblemError as exc:
        raise ConfigError(problem_path(exc.key), str(exc)) from None
