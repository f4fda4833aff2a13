"""Scenario configuration: YAML sections -> runtime objects.

Sections: ``domain`` (q0,q1,p0,p1), ``grid`` (Nq,Np,n[,m]), ``physics``
(hbar), ``time`` (dt or cfl, steps or t_final, sample_every, renormalize),
``model``, ``hamiltonian`` (kind + parameters), ``initial`` (representation +
profile specs), ``diagnostics`` (functional list, loop spec, probe seed) and
``equilibrium`` (representation, E or mu, branch, certify, T_check).

Every key is read once, by ``read``: it follows the dotted key path (list
items by index), converts the value to one kind and checks its range.
Numbers are finite (a numeric string counts: YAML 1.1 reads ``1e-3`` as one),
integers integral, booleans YAML booleans, sections mappings; a null key is
absent. Any invalid value raises ``ConfigError`` at the key's path, and a grid
whose fields cannot be allocated raises it at its larger axis, ``grid.Nq`` or
``grid.Np``.
"""

from __future__ import annotations

import numpy as np
import yaml

from . import hamiltonians as _ham
from .diagnostics import DEFAULT_FUNCTIONALS, make_sample_fn
from .dynamics import MODELS, StepperConfig, cfl_dt, circle_loop, excess_work
from .equilibria import MaxEntProblem, ProblemError
from .grids import MIN_POINTS, NotHermitianError, PhaseGrid, hermitize, require_hermitian
from .hamiltonians import EigenvalueCrossingError, eigenfields
from .invariants import scalar_fn, spectral_fn
from .snapshots import read_snapshot
from .states import (ConditionalSplit, HybridDensity, MeanFieldState, UhlmannSplit,
                     UnphysicalStateError, quantum_marginal, require_density)

# Largest max|P - D rho| / max|P| at which a density snapshot still counts as
# the product state D rho of a mean-field run.
MEANFIELD_FACTOR_TOL = 1e-10


class ConfigError(ValueError):
    def __init__(self, path, message="missing or invalid key"):
        super().__init__(f"{message}: {path}")
        self.path = path


def load_config(path):
    """The mapping in the YAML file at ``path``; a file that cannot be opened,
    decoded as UTF-8 or parsed raises ``ConfigError`` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(path, f"unreadable config ({' '.join(str(exc).split())})") from None
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return cfg


_REQUIRED = object()


def read(cfg, path, kind, default=_REQUIRED, check=None, why="out of range"):
    """The value at the dotted key ``path`` of ``cfg`` converted by ``kind``;
    ``default`` when the key is absent or null (a ConfigError when there is
    none). ``check(value)`` must be true, else the error says ``why``; it may
    also raise ValueError with its own message."""
    node, parts = cfg, path.split(".")
    for k, part in enumerate(parts):
        if isinstance(node, list) and part.isdigit():
            node = node[int(part)] if int(part) < len(node) else None
        elif isinstance(node, dict):
            node = node.get(part)
        elif node is not None:
            raise ConfigError(".".join(parts[:k]), "expected a mapping")
    if node is None:
        if default is _REQUIRED:
            raise ConfigError(path)
        return default
    try:
        value = kind(node)
        if check is not None and not check(value):
            raise ValueError(why)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from None
    return value


def _finite(value):
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    if not np.isfinite(x := float(value)):
        raise ValueError("must be finite")
    return x


def _integer(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not (x := _finite(value)).is_integer():
        raise ValueError("expected an integer")
    return int(x)


def _instance(kind, what):
    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}")
        return value
    return convert


_boolean, _string = _instance(bool, "true or false"), _instance(str, "a string")
_mapping, _list = _instance(dict, "a mapping"), _instance(list, "a list")


def _list_of(kind):
    return lambda value: [kind(item) for item in _list(value)]


def _pair(value):
    if len(_list(value)) != 2:
        raise ValueError("expected a pair of numbers")
    return _finite(value[0]), _finite(value[1])


def _complex(value):
    """Complex entries are [re, im] pairs at the innermost level, e.g. a
    2-vector is [[1.0, 0.0], [0.0, 0.0]]."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2 or not np.all(np.isfinite(arr)):
        raise ValueError("complex values must be finite [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


_NAMED_MATRICES = {"sigma_x": _ham.SIGMA_X, "sigma_y": _ham.SIGMA_Y, "sigma_z": _ham.SIGMA_Z}


def _hermitian(value, ndim=2):
    """A Hermitian matrix (a field for ``ndim`` 4): a named one, rows of
    numbers, or rows of [re, im] pairs."""
    if isinstance(value, str):
        if value not in _NAMED_MATRICES:
            raise ValueError(f"unknown named matrix '{value}'")
        return _NAMED_MATRICES[value]
    M = _complex(value) if np.ndim(value) == 3 else np.asarray(value, dtype=float) + 0j
    if M.ndim != ndim or M.shape[-1] != M.shape[-2] or not np.all(np.isfinite(M)):
        raise ValueError("expected a finite square matrix")
    return require_hermitian(M)


# a range check and what it wants, passed on as read(..., *_POSITIVE)
_POSITIVE = (lambda x: x > 0, "must be positive")


def _set_keys(cfg, path, params):
    """The keys of ``params`` (key -> kind[, check]) that are set under ``path``."""
    values = {key: read(cfg, f"{path}.{key}", kind, None, *check)
              for key, (kind, *check) in params.items()}
    return {key: value for key, value in values.items() if value is not None}


def build_grid(cfg) -> PhaseGrid:
    N = [read(cfg, path, _integer, check=lambda n: n >= MIN_POINTS,
              why=f"the stencils need at least {MIN_POINTS} points")
         for path in ("grid.Nq", "grid.Np")]
    bounds = {key: read(cfg, f"domain.{key}", _finite) for key in ("q0", "q1", "p0", "p1")}
    for lo, hi in (("q0", "q1"), ("p0", "p1")):
        if not 0 < bounds[hi] - bounds[lo] < np.inf:
            raise ConfigError(f"domain.{hi}", f"must exceed domain.{lo} by a finite length")
    hbar = read(cfg, "physics.hbar", _finite, 1.0, *_POSITIVE)
    try:
        return PhaseGrid(**bounds, Nq=N[0], Np=N[1], hbar=hbar)
    except (MemoryError, ValueError, OverflowError):  # numpy refuses the size
        raise _oversized(*N) from None


def _oversized(Nq, Np):
    return ConfigError("grid.Nq" if Nq >= Np else "grid.Np",
                       "the grid's fields do not fit in memory")


_PROFILE_PARAMS = {"amplitude": (_finite,), "center": (_pair,),
                   "mode": (_integer, lambda k: k != 0, "must not be zero"),
                   "omega": (_finite,), "mass": (_finite, *_POSITIVE)}
_NANOWIRE_PARAMS = {"mass": (_finite, *_POSITIVE), "eta": (_finite,), "B": (_finite,),
                    "trig": (_boolean,), "center_p": (_finite,)}


def _profile_name(value):
    if _string(value) not in _ham.PROFILES:
        raise ValueError(f"unknown scalar profile '{value}'")
    return value


def _profile(cfg, path):
    """``scalar_profile``'s arguments at ``path``: a profile name, or a
    mapping of ``name`` and the parameters it sets."""
    node = read(cfg, path, lambda v: v if isinstance(v, dict) else _profile_name(v))
    return {"name": node} if isinstance(node, str) else {
        "name": read(cfg, f"{path}.name", _profile_name), **_set_keys(cfg, path, _PROFILE_PARAMS)}


# the key that sets each kind's quantum dimension
_DIMENSION_KEY = {"uncoupled": "hamiltonian.H_Q", "pure_dephasing": "hamiltonian.A",
                  "zeta_composed": "hamiltonian.coeffs", "tabulated": "hamiltonian.H"}


def build_hamiltonian(grid, cfg) -> _ham.Hamiltonian:
    read(cfg, "hamiltonian", _mapping)
    kind = read(cfg, "hamiltonian.kind", _string, check=_ham.KINDS.__contains__,
                why="unknown hamiltonian kind")
    key = "hamiltonian."
    if kind == "nanowire":
        args = _set_keys(cfg, "hamiltonian", _NANOWIRE_PARAMS)
    elif kind == "uncoupled":
        args = {"h_c": _profile(cfg, key + "h_c"), "H_Q": read(cfg, key + "H_Q", _hermitian)}
    elif kind == "pure_dephasing":
        args = {"h_0": _profile(cfg, key + "h_0"), "h_i": _profile(cfg, key + "h_i"),
                "A": read(cfg, key + "A", _hermitian)}
    elif kind == "zeta_composed":  # a non-empty list of matrices, all of one size
        count = len(read(cfg, key + "coeffs", _list, check=len, why="must not be empty"))
        args = {"zeta": _profile(cfg, key + "zeta"), "coeffs": [
            read(cfg, f"{key}coeffs.{k}", _hermitian) for k in range(count)]}
        if len({c.shape for c in args["coeffs"]}) > 1:
            raise ConfigError(key + "coeffs", "the matrices differ in size")
    else:
        args = {"H": read(cfg, key + "H", lambda v: _hermitian(v, ndim=4),
                          lambda H: H.shape[:2] == grid.shape, "expected an (Nq, Np) field")}
    try:
        return _ham.build(grid, {"kind": kind, **args})
    except MemoryError:
        raise _oversized(grid.Nq, grid.Np) from None


def _unit(values, path):
    """``values`` divided by its norm, which must not be zero."""
    norm = np.linalg.norm(values)
    if not norm > 0:
        raise ConfigError(path, "must not be zero")
    return values / norm


def _gaussian(grid, cfg, path):
    qc, pc = read(cfg, f"{path}.center", _pair, (0.0, 0.0))
    sq, sp = read(cfg, f"{path}.sigma", _pair, (1.0, 1.0))
    return np.exp(-0.5 * ((grid.Q - qc) / sq) ** 2 - 0.5 * ((grid.P - pc) / sp) ** 2)


def _density_profile(grid, cfg, path):
    read(cfg, path, _mapping)
    name = read(cfg, f"{path}.profile", _string)
    if name == "gaussian":
        D = _gaussian(grid, cfg, path)
    elif name == "von_mises":
        # torus-native Gaussian: exp(kappa (cos(k dx) - 1)), seam-smooth by
        # construction, width ~ 1/sqrt(kappa) near the peak
        qc, pc = read(cfg, f"{path}.center", _pair, (0.0, 0.0))
        kq, kp = read(cfg, f"{path}.kappa", _pair, (2.0, 2.0))
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
        for k in range(len(read(cfg, f"{path}.bumps", _list_of(_mapping), []))):
            bump = f"{path}.bumps.{k}"
            D += read(cfg, f"{bump}.weight", _finite, 1.0) * _gaussian(grid, cfg, bump)
    else:
        raise ConfigError(f"{path}.profile", f"unknown density profile '{name}'")
    mass = float(grid.integrate(D))
    if mass == 0.0:
        raise ConfigError(path, "the profile integrates to 0")
    D = D / mass
    w = read(cfg, f"{path}.uniform_weight", _finite, 0.0, lambda w: 0 <= w <= 1,
             "must lie in [0, 1]")  # a larger weight makes D negative
    if w > 0.0:
        D = (1.0 - w) * D + w / grid.area
    try:  # here, before a state of any representation is built from it
        require_density(D)
    except UnphysicalStateError as exc:
        raise ConfigError(path, str(exc)) from None
    return D


def _state_profile(grid, ham, cfg, path):
    read(cfg, path, _mapping)
    name = read(cfg, f"{path}.profile", _string)
    if name == "constant":
        vec = _unit(read(cfg, f"{path}.vector", _complex, check=lambda v: v.ndim == 1,
                         why="expected a vector"), f"{path}.vector")
        return np.broadcast_to(vec, grid.shape + vec.shape).copy()
    if name == "eigen":
        branch = read(cfg, f"{path}.branch", _integer, 0, lambda b: 0 <= b < ham.n,
                      f"outside quantum dimension {ham.n}")
        return np.ascontiguousarray(eigenfields(ham).state(branch))
    if name == "twisted":
        # periodic for any amplitude: the mixing angle is itself a periodic
        # function of p, theta = amplitude * sin(k kappa_p (p - pc))
        k = read(cfg, f"{path}.k", _integer, 1)
        ell = read(cfg, f"{path}.l", _integer, 1)
        qc, pc = read(cfg, f"{path}.center", _pair,
                      (0.5 * (grid.q0 + grid.q1), 0.5 * (grid.p0 + grid.p1)))
        amp = read(cfg, f"{path}.amplitude", _finite, 1.0)
        th = amp * np.sin(k * (2 * np.pi / grid.Lp) * (grid.P - pc))
        ph = ell * (2 * np.pi / grid.Lq) * (grid.Q - qc)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(th)
        psi[..., 1] = np.exp(1j * ph) * np.sin(th)
        return psi
    raise ConfigError(f"{path}.profile", f"unknown state profile '{name}'")


def _waveop_profile(grid, ham, cfg, m, path):
    read(cfg, path, _mapping)
    name = read(cfg, f"{path}.profile", _string)
    if name == "constant":
        W = _unit(read(cfg, f"{path}.matrix", _complex, check=lambda W: W.ndim == 2,
                       why="expected a matrix"), f"{path}.matrix")
        return np.broadcast_to(W, grid.shape + W.shape).copy()
    W = np.zeros(grid.shape + (ham.n, m), dtype=complex)
    if name == "eigen_mix":
        weights = read(cfg, f"{path}.weights", _list_of(_finite),
                       check=lambda ws: len(ws) <= m and min(ws, default=0) >= 0 and sum(ws) > 0,
                       why=f"expected at most {m} weights, non-negative, not all zero")
        eig = eigenfields(ham)
        for b, w in enumerate(weights):
            W[..., :, b] = np.sqrt(w / sum(weights)) * eig.state(b)
        return W
    if name == "embed_state":
        W[..., :, 0] = _state_profile(grid, ham, cfg, f"{path}.state")
        return W
    raise ConfigError(f"{path}.profile", f"unknown wave-operator profile '{name}'")


def build_initial_state(grid, ham, cfg):
    """Returns the initial state object matching initial.representation, in
    the quantum dimension of the Hamiltonian; eigenfields at a crossing fail at hamiltonian."""
    try:
        state = _initial_state(grid, ham, cfg)
    except EigenvalueCrossingError as exc:
        raise ConfigError("hamiltonian", str(exc)) from None
    return _same_dimension(state, ham, _DIMENSION_KEY.get(ham.kind, "initial"))


def _same_dimension(state, ham, path):
    if state.n != ham.n:
        raise ConfigError(path, f"the state has quantum dimension {state.n}, "
                                f"the Hamiltonian {ham.n}")
    return state


def _initial_state(grid, ham, cfg):
    init = read(cfg, "initial", _mapping)
    rep = read(cfg, "initial.representation", _string,
               check=("conditional", "uhlmann", "density", "mean_field").__contains__,
               why="unknown representation")
    snapshot = read(cfg, "initial.snapshot", _string, None)
    if snapshot is not None:
        try:
            state = read_snapshot(snapshot)
        except (OSError, ValueError) as exc:
            raise ConfigError("initial.snapshot", str(exc)) from None
        if not state.grid.compatible(grid):
            raise ConfigError("initial.snapshot", f"snapshot grid ({state.grid}) differs from config ({grid})")
        _same_dimension(state, ham, "initial.snapshot")
        if not state.mass() > 0.0:  # nothing to run, nor to factor into D rho
            raise ConfigError("initial.snapshot", f"the state has mass {state.mass():.3e}, "
                                                  "not a positive one")
        if rep == "mean_field" and isinstance(state, HybridDensity):
            state = _meanfield_factors(state)
        # the physics of the state; a run's own snapshot drifts in norm and mass
        return _validated(state, "initial.snapshot", normalized=False)
    if rep == "density":
        source = read(cfg, "initial.compose_from", _string, "conditional",
                      check=("conditional", "uhlmann", "mean_field").__contains__,
                      why="must be conditional, uhlmann or mean_field")
        sub = {**cfg, "initial": {**init, "representation": source}}
        return _initial_state(grid, ham, sub).compose()
    D = _density_profile(grid, cfg, "initial.density")
    # the profiles give a unit psi or W, so the density is what can fail
    if rep == "conditional":
        psi = _state_profile(grid, ham, cfg, "initial.state")
        return _validated(ConditionalSplit(grid, D, psi), "initial.density")
    if rep == "uhlmann":
        # more than n columns add no state: W W^dag has rank at most n
        m = read(cfg, "grid.m", _integer, ham.n, lambda m: 1 <= m <= ham.n,
                 f"must be between 1 and the quantum dimension {ham.n}")
        W = _waveop_profile(grid, ham, cfg, m, "initial.waveop")
        return _validated(UhlmannSplit(grid, D, W), "initial.density")
    read(cfg, "initial.rho", _mapping)
    rho = read(cfg, "initial.rho.matrix", _complex, None,
               lambda r: r.shape == (ham.n, ham.n), f"expected a {ham.n} x {ham.n} matrix")
    if rho is not None:
        rho = hermitize(rho)
        trace = np.real(np.trace(rho))
        if not trace > 0:
            raise ConfigError("initial.rho.matrix", "must have a positive trace")
        return _validated(MeanFieldState(grid, D, rho / trace), "initial.rho.matrix")
    if read(cfg, "initial.rho.profile", _string, None) != "marginal_of_state":
        raise ConfigError("initial.rho", "give a matrix or profile=marginal_of_state")
    psi = _state_profile(grid, ham, cfg, "initial.rho.state")
    rho = quantum_marginal(ConditionalSplit(grid, D, psi))
    return _validated(MeanFieldState(grid, D, rho), "initial.rho")


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
    return read({"model": override} if override else cfg, "model", _string,
                check=MODELS.__contains__, why="unknown model")


def time_spec(cfg):
    """The ``time`` section as numbers, None where a key is absent."""
    return {"dt": read(cfg, "time.dt", _finite, None, *_POSITIVE),
            "steps": read(cfg, "time.steps", _integer, None, lambda s: s >= 0,
                          "must not be negative"),
            "cfl": read(cfg, "time.cfl", _finite, None, *_POSITIVE),
            "t_final": read(cfg, "time.t_final", _finite, None, *_POSITIVE),
            "sample_every": read(cfg, "time.sample_every", _integer, 1, *_POSITIVE),
            "renormalize": read(cfg, "time.renormalize", _boolean, False)}


def rescaled(cfg, grid, f, time):
    """``cfg`` on ``grid`` refined ``f`` times along each axis, its ``time``
    section replaced by the numbers of ``time`` (a ``time_spec``)."""
    return {**cfg, "grid": {**cfg["grid"], "Nq": grid.Nq * f, "Np": grid.Np * f},
            "time": {k: v for k, v in time.items() if v is not None}}


def build_stepper(cfg, grid, ham, model, state, refinement=1) -> StepperConfig:
    """The step size and count of the ``time`` section. A run that asks for
    more than ``refinement`` times ``dynamics.WORK_CAP`` fails at the key
    that set its step count; a convergence level k is a refinement of 8^k,
    its 4^k times the points at up to 2^k times the steps."""
    state_type = MODELS[model].state_type
    if not isinstance(state, state_type):
        raise ConfigError("model", f"model '{model}' evolves a {state_type.__name__}, "
                                   f"the initial state is a {type(state).__name__}")
    time = time_spec(cfg)
    dt, steps, t_final = time["dt"], time["steps"], time["t_final"]
    counted_by = "time.steps"  # the key that set the step count
    if dt is None:
        if time["cfl"] is None:
            raise ConfigError("time.dt", "give dt or cfl")
        dt = cfl_dt(model, state, ham, time["cfl"])
        if t_final is not None:
            steps, counted_by = max(int(np.ceil(t_final / dt)), 1), "time.t_final"
            dt = t_final / steps
    if steps is None:
        if t_final is None:
            raise ConfigError("time.steps", "give steps or t_final")
        steps, counted_by = max(int(round(t_final / dt)), 1), "time.t_final"
    why = excess_work(steps, "steps", grid, ham.n, refinement)
    if why:
        raise ConfigError(counted_by, why)
    return StepperConfig(dt=dt, steps=steps, sample_every=time["sample_every"],
                         renormalize=time["renormalize"])


def build_loop(cfg, grid):
    if read(cfg, "diagnostics.loop", _mapping, None) is None:
        return None
    points = read(cfg, "diagnostics.loop.points", _integer, 256, lambda k: k >= 3,
                  "need at least 3 points")  # fewer enclose no area
    if points > grid.Nq * grid.Np:  # the grid's nodes bound the tracer's work and memory
        raise ConfigError("diagnostics.loop.points", f"{points} loop points are above the cap "
                          f"of {grid.Nq * grid.Np}, the node count of the grid")
    return circle_loop(read(cfg, "diagnostics.loop.center", _pair, (0.0, 0.0)),
                       read(cfg, "diagnostics.loop.radius", _finite, 0.5, *_POSITIVE), points)


def build_sample_fn(cfg, model, ham):
    """The row function of the ``diagnostics`` section, every key checked first."""
    read(cfg, "diagnostics", _mapping, None)
    functionals = read(cfg, "diagnostics.functionals", _list_of(_string), None,
                       lambda fs: set(fs) <= set(DEFAULT_FUNCTIONALS),
                       f"expected names from {DEFAULT_FUNCTIONALS}")
    alpha = read(cfg, "diagnostics.renyi_alpha", _finite, 2.0, lambda a: a > 0.0 and a != 1.0,
                 "must be positive and differ from 1")
    return make_sample_fn(
        model, ham, functionals, alpha,
        c1_phi=read(cfg, "diagnostics.c1_phi", _string, "neg_x_log_x_trace", spectral_fn),
        c2_sigma=read(cfg, "diagnostics.c2_sigma", _string, "log", scalar_fn))


def probe_spec(cfg, ham):
    """(seed, count, n) of the ``casimir-check`` probes; ``grid.n`` must be ``ham.n``."""
    read(cfg, "diagnostics", _mapping, None)
    seed = read(cfg, "diagnostics.probes_seed", _integer, 12345, lambda s: s >= 0,
                "must be a non-negative integer")
    n = read(cfg, "grid.n", _integer, check=lambda n: n == ham.n,
             why=f"the Hamiltonian has quantum dimension {ham.n}")
    n_probes = read(cfg, "diagnostics.n_probes", _integer, 20, *_POSITIVE)
    why = excess_work(n_probes, "probes", ham.grid, n)
    if why:
        raise ConfigError("diagnostics.n_probes", why)
    return seed, n_probes, n


def problem_path(key):
    """Config key path of the ``MaxEntProblem`` field a ``ProblemError`` names."""
    return "hamiltonian" if key == "ham" else f"equilibrium.{key}"


def build_problem(grid, ham, cfg) -> MaxEntProblem:
    read(cfg, "equilibrium", _mapping)
    try:
        return MaxEntProblem(
            representation=read(cfg, "equilibrium.representation", _string),
            ham=ham,
            E=read(cfg, "equilibrium.E", _finite, None),
            mu=read(cfg, "equilibrium.mu", _finite, None),
            branch=read(cfg, "equilibrium.branch", _integer, 0),
        )
    except ProblemError as exc:
        raise ConfigError(problem_path(exc.key), str(exc)) from None


def certificate_time(cfg):
    """T_check of the equilibrium's stationarity certificate, or None when
    ``equilibrium.certify`` is false."""
    if not read(cfg, "equilibrium.certify", _boolean, True):
        return None
    return read(cfg, "equilibrium.T_check", _finite, 2 * np.pi, *_POSITIVE)
