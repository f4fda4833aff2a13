"""Evolution models and the fixed-step RK4 driver.

Models
------
* ``mean_field``            (D, rho): D advected by Tr(rho H), rho rotated by
                            the D-averaged Hamiltonian.
* ``ehrenfest_density``     P transported along <X_H> and rotated by [H, .].
* ``ehrenfest_uhlmann``     (D, W) form, transported along the pairing
                            X = Re Tr(W^dag X_H W).
* ``ehrenfest_conditional`` (D, psi) form: the same right-hand side, with psi
                            taken as the n x 1 wave operator W = psi[..., None].
* ``beyond_ehrenfest``      P with the gradient-corrected vector field and the
                            modified Hamiltonian (Sigma-hat terms).

``MODELS`` is the one registry of the models: for each, the state type it
evolves, the maps between that state and the tuple of arrays RK4 advances,
the right-hand side ``rhs(grid, ham, arrays) -> (tendencies, info)`` and the
renormalisation. Every right-hand side reports its transport velocity and
the largest speed, which the loop tracer and the CFL step size read. Both
density models end in one tendency, -div(P X) - (i/hbar)[H, P]. The vacuum
floor is ``states.vacuum_floor`` throughout; only the density right-hand
sides take its factor, so that at 0 a zero-trace region aborts.

The split-state right-hand side reads H, X_q and X_p through
``Hamiltonian.planes()``: for n <= 3, static fields held as contiguous
component planes, so that the component sums of ``grids.mm`` (the pairing
and H W) read each matrix entry as one contiguous block. The state W stays
interleaved: copying it into planes at every stage measured no faster.

All transport terms use the conservative form div(field * velocity); with the
antisymmetric stencils the grid sum of such a divergence telescopes to zero,
so total mass is conserved to round-off. Hermitian tendencies are symmetrized
each stage and the anti-Hermitian residual is reported as a discretization
health metric. The integrator is classic RK4 with a CFL guard; no adaptivity,
so conservation drifts carry a clean dt^4 signal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import PhaseGrid, antiherm_residual, comm, hermitize, mm, tr_prod, trace_field
from .hamiltonians import Hamiltonian
from .states import EPS_D_REL, ConditionalSplit, HybridDensity, UhlmannSplit, compose, vacuum_floor


class NumericalAbort(RuntimeError):
    """Evolution produced NaN/Inf or broke the CFL guard."""


@dataclass
class MeanFieldState:
    """Factorized state: classical density D(q,p) and quantum matrix rho."""

    grid: PhaseGrid
    D: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.rho = np.asarray(self.rho, dtype=complex)


@dataclass
class StepperConfig:
    dt: float
    steps: int
    sample_every: int = 1
    renormalize: bool = False
    cfl_warn: float = 0.35
    cfl_max: float = 0.5


# -- right-hand sides ----------------------------------------------------------


def mean_field_rhs(grid, D, rho, ham):
    """Tendencies of the factorized model.

    dD/dt = {Tr(rho H), D};  i hbar drho/dt = [integral(D H), rho].
    The effective classical Hamiltonian gradient is assembled from the
    catalog's analytic gradients.
    """
    dHeff_q = np.einsum("ab,ijba->ij", rho, ham.dH_q).real
    dHeff_p = np.einsum("ab,ijba->ij", rho, ham.dH_p).real
    dD = dHeff_q * grid.partial_p(D) - dHeff_p * grid.partial_q(D)
    Hbar = hermitize(grid.integrate(D[..., None, None] * ham.H))
    drho = (-1j / grid.hbar) * (Hbar @ rho - rho @ Hbar)
    speed = float(np.max(np.hypot(dHeff_p, dHeff_q)))
    return (dD, drho), {"max_speed": speed, "velocity": (dHeff_p, -dHeff_q)}


def _regularized_trace(P, eps_tr_rel=EPS_D_REL):
    """Tr P plus the vacuum floor: the density the density models divide by.

    Raises ``NumericalAbort`` at the first grid point where it is exactly 0
    (a zero-trace region with ``eps_tr_rel = 0``), before anything divides.
    """
    TrP = trace_field(P)
    D = TrP + vacuum_floor(TrP, eps_tr_rel)
    if not np.all(D):
        bad = np.argwhere(D == 0)[0]
        raise NumericalAbort(
            f"zero trace at grid point {tuple(bad)} (zero-trace region without regularization)"
        )
    return D


def _density_tendency(grid, P, Xq, Xp, H):
    """The density models' tendency -div(P X) - (i/hbar)[H, P], symmetrized,
    with its info dict; a ``NumericalAbort`` names the first grid point
    where it is not finite."""
    tend = -grid.divergence(P * Xq[..., None, None], P * Xp[..., None, None])
    tend += (-1j / grid.hbar) * comm(H, P)
    if not np.all(np.isfinite(tend)):
        bad = np.argwhere(~np.all(np.isfinite(tend), axis=(-2, -1)))[0]
        raise NumericalAbort(f"non-finite tendency at grid point {tuple(bad)}")
    info = {
        "max_speed": float(np.max(np.hypot(Xq, Xp))),
        "antiherm_resid": antiherm_residual(tend),
        "velocity": (Xq, Xp),
    }
    return (hermitize(tend),), info


def ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL):
    """dP/dt = -div(P <X_H>) - (i/hbar)[H, P], symmetrized."""
    P = np.asarray(P, dtype=complex)
    denom = _regularized_trace(P, eps_tr_rel)
    Xq = np.einsum("ijab,ijba->ij", P, ham.X_q).real / denom
    Xp = np.einsum("ijab,ijba->ij", P, ham.X_p).real / denom
    return _density_tendency(grid, P, Xq, Xp, ham.H)


def pairing(W, X):
    """Re Tr(W^dag X W) at every grid point: a matrix field X averaged over
    the conditional state W (a transport velocity when X is X_H).

    The sum of Re conj(W) (X W) over the n x m entries, with X W from ``mm``
    (X interleaved or planar, ``grids.planar``). Since Re(conj(w) z) =
    Re w Re z + Im w Im z, that sum is the real dot product of the two
    fields' (re, im) parts, which reads both fields contiguously.
    """
    W = np.ascontiguousarray(W, dtype=complex)
    XW = mm(X, W)
    return np.einsum("...x,...x->...", _parts(W), _parts(XW))


def _parts(Z):
    """A C-contiguous complex (..., n, m) field as the real (..., 2 n m) array
    of its entries' real and imaginary parts (a view)."""
    return Z.view(float).reshape(Z.shape[:-2] + (-1,))


def _as_waveop(W):
    """A state vector field psi, shape (Nq, Np, n), as the n x 1 W = psi[..., None]."""
    return W if W.ndim == 4 else W[..., None]


def uhlmann_rhs(grid, D, W, ham):
    """System dD/dt = -div(D X), i hbar (d_t + X.grad) W = H W,
    with X = Re Tr(W^dag X_H W) pointwise.

    ``W`` may be a state vector field psi of shape (Nq, Np, n), taken as the
    n x 1 operator psi[..., None]; its tendency keeps the shape it was given.
    """
    W = np.asarray(W)
    Wm = _as_waveop(W)
    H, X_q, X_p = ham.planes()
    Xq, Xp = pairing(Wm, X_q), pairing(Wm, X_p)
    dD = -grid.divergence(D * Xq, D * Xp)
    dW = mm(H, Wm)
    dW *= -1j / grid.hbar
    dW -= Xq[..., None, None] * grid.partial_q(Wm)
    dW -= Xp[..., None, None] * grid.partial_p(Wm)
    info = {"max_speed": float(np.max(np.hypot(Xq, Xp))), "velocity": (Xq, Xp)}
    return (dD, dW.reshape(W.shape)), info


def conditional_rhs(grid, D, psi, ham):
    """The (D, psi) system: ``uhlmann_rhs`` with psi as an n x 1 wave operator."""
    return uhlmann_rhs(grid, D, psi, ham)


def beyond_ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL):
    """Gradient-corrected model: dP/dt = -div(P X) - (i/hbar)[scriptH, P].

    X_k   = <X_H>_k + (1/D) Tr(X_H . grad Sigma_k - Sigma . grad X_H,k)
    Sigma = (i hbar / 2D) [P, X_P],  X_P = (d_p P, -d_q P)
    scriptH = H + (i hbar / D) [grad P - P grad ln sqrt(D), X_H]

    Dots contract the 2-component phase-space index; matrix products are kept
    in the written (left-to-right) order.
    """
    P = np.asarray(P, dtype=complex)
    hbar = grid.hbar
    D = _regularized_trace(P, eps_tr_rel)
    Dmat = D[..., None, None]

    dPq = grid.partial_q(P)
    dPp = grid.partial_p(P)
    XP = (dPp, -dPq)
    XH = (ham.X_q, ham.X_p)
    dXH = _beyond_xh_grads(grid, ham)

    Sig = tuple((0.5j * hbar) * comm(P, XPk) / Dmat for XPk in XP)
    dSig = tuple((grid.partial_q(Sk), grid.partial_p(Sk)) for Sk in Sig)

    avgX = tuple(np.einsum("ijab,ijba->ij", P, XHk).real / D for XHk in XH)
    calX = []
    for k in range(2):
        corr = tr_prod(XH[0], dSig[k][0]) + tr_prod(XH[1], dSig[k][1])
        corr -= tr_prod(Sig[0], dXH[k][0]) + tr_prod(Sig[1], dXH[k][1])
        calX.append(avgX[k] + corr / D)

    dlnsq = 0.5 * grid.partial_q(D) / D
    dlnsp = 0.5 * grid.partial_p(D) / D
    G = (dPq - P * dlnsq[..., None, None], dPp - P * dlnsp[..., None, None])
    GX = comm(G[0], XH[0]) + comm(G[1], XH[1])
    scrH = hermitize(ham.H + (1j * hbar) * GX / Dmat)

    return _density_tendency(grid, P, calX[0], calX[1], scrH)


def _beyond_xh_grads(grid, ham):
    # X_H is static; cache its stencil gradients on the Hamiltonian object.
    key = "_xh_grads"
    if key not in ham.extras:
        ham.extras[key] = (
            (grid.partial_q(ham.X_q), grid.partial_p(ham.X_q)),
            (grid.partial_q(ham.X_p), grid.partial_p(ham.X_p)),
        )
    return ham.extras[key]


def beyond_sigma_grad(grid, P):
    """Gradient-indexed Sigma-hat, (i hbar / 2D) [P, d_k P] for k = q, p.

    The model's energy pairs these components straight against
    (X_H,q, X_H,p); equivalently, the symplectically-indexed Sigma-hat of the
    evolution equation is paired with X_H through the symplectic form. That
    index convention is the one the flow actually conserves (the straight
    X-on-X pairing is not a constant of motion).
    """
    Dmat = _regularized_trace(P)[..., None, None]
    grads = (grid.partial_q(P), grid.partial_p(P))
    return tuple((0.5j * grid.hbar) * comm(P, Gk) / Dmat for Gk in grads)


def energy_of(model, state, ham):
    """Hamiltonian functional of the given model at the given state."""
    grid = state.grid
    if model == "mean_field":
        heff = np.einsum("ab,ijba->ij", state.rho, ham.H).real
        return float(grid.integrate(state.D * heff))
    P = state.P if isinstance(state, HybridDensity) else compose(state).P
    e = float(grid.integrate(np.einsum("ijab,ijba->ij", P, ham.H).real))
    if model == "beyond_ehrenfest":
        Sig = beyond_sigma_grad(grid, P)
        extra = np.einsum("ijab,ijba->ij", Sig[0], ham.X_q).real
        extra += np.einsum("ijab,ijba->ij", Sig[1], ham.X_p).real
        e += float(grid.integrate(extra))
    return e


# -- model registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A model's glue: the state type it evolves, state -> array tuple
    (``unpack``), (state, arrays) -> state (``pack``), the right-hand side
    ``rhs(grid, ham, arrays) -> (tendencies, info)`` and the
    renormalisation ``renorm(grid, arrays)``."""

    state_type: type
    unpack: Callable
    pack: Callable
    rhs: Callable
    renorm: Callable


def _mf_renorm(grid, arrays):
    D, rho = arrays
    D = D / grid.integrate(D)
    rho = hermitize(rho)
    return (D, rho / np.real(np.trace(rho)))


def _split_renorm(grid, arrays):
    D, W = arrays
    Wm = _as_waveop(W)
    norms = np.linalg.norm(Wm, axis=(-2, -1))
    Wm = Wm / np.where(norms > 0, norms, 1.0)[..., None, None]
    return (D / grid.integrate(D), Wm.reshape(W.shape))


def _dens_renorm(grid, arrays):
    (P,) = arrays
    return (hermitize(P) / grid.integrate(trace_field(P)),)


# The lambdas look each right-hand side up as a module attribute at call
# time, so wrappers installed on the module (benchmarks/spans.py) see every call.
MODELS = {
    "mean_field": Model(
        MeanFieldState,
        lambda s: (s.D, s.rho),
        lambda s, a: MeanFieldState(s.grid, a[0], a[1]),
        lambda grid, ham, a: mean_field_rhs(grid, a[0], a[1], ham),
        _mf_renorm,
    ),
    "ehrenfest_density": Model(
        HybridDensity,
        lambda s: (s.P,),
        lambda s, a: HybridDensity(s.grid, a[0]),
        lambda grid, ham, a: ehrenfest_rhs(grid, a[0], ham),
        _dens_renorm,
    ),
    "ehrenfest_conditional": Model(
        ConditionalSplit,
        lambda s: (s.D, s.psi),
        lambda s, a: ConditionalSplit(s.grid, a[0], a[1]),
        lambda grid, ham, a: conditional_rhs(grid, a[0], a[1], ham),
        _split_renorm,
    ),
    "ehrenfest_uhlmann": Model(
        UhlmannSplit,
        lambda s: (s.D, s.W),
        lambda s, a: UhlmannSplit(s.grid, a[0], a[1]),
        lambda grid, ham, a: uhlmann_rhs(grid, a[0], a[1], ham),
        _split_renorm,
    ),
    "beyond_ehrenfest": Model(
        HybridDensity,
        lambda s: (s.P,),
        lambda s, a: HybridDensity(s.grid, a[0]),
        lambda grid, ham, a: beyond_ehrenfest_rhs(grid, a[0], ham),
        _dens_renorm,
    ),
}

MODEL_KINDS = tuple(MODELS)


def cfl_dt(model, state, ham, cfl):
    """Step size at advective CFL number ``cfl`` for the largest transport
    speed the model's right-hand side reports at ``state``."""
    spec = MODELS[model]
    grid = state.grid
    _, info = spec.rhs(grid, ham, spec.unpack(state))
    return float(cfl) * min(grid.dq, grid.dp) / max(info["max_speed"], 1e-12)


# -- RK4 driver -------------------------------------------------------------------


@dataclass
class RunResult:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    loop_points: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""
    cfl_max_seen: float = 0.0

    @property
    def final_state(self):
        return self.states[-1] if self.states else None


def rk4_run(model, state, ham, cfg: StepperConfig, sample_fn=None, loop=None,
            keep_states=True):
    """Integrate ``state`` with classic RK4, sampling diagnostics.

    ``sample_fn(t, state, loop_pts, info)`` is called every
    ``cfg.sample_every`` steps (plus the final step) and its dict is recorded.
    ``loop`` is an optional (K, 2) array of phase-space points advected with
    the model's scalar transport velocity: one more array of the RK4 tuple,
    which renormalisation leaves alone.
    Renormalization is OFF by default: norm and mass drift are themselves
    diagnostics, and projecting them away alters the conservation picture.
    An abort (a ``NumericalAbort`` from the right-hand side, the CFL guard or
    a non-finite state) ends the run with the state it stopped at and its
    time as the last entries of ``states`` and ``times``.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model '{model}'")
    ops = MODELS[model]
    if not isinstance(state, ops.state_type):
        raise TypeError(
            f"model '{model}' expects {ops.state_type.__name__}, got {type(state).__name__}"
        )
    grid = state.grid
    y = tuple(np.array(a, copy=True) for a in ops.unpack(state))
    n_model = len(y)  # the model arrays; a traced loop follows them
    if loop is not None:
        y += (np.array(loop, dtype=float, copy=True),)
    minh = min(grid.dq, grid.dp)
    result = RunResult()
    warned_cfl = False

    def full_rhs(arrays):
        tends, info = ops.rhs(grid, ham, arrays[:n_model])
        if loop is not None:
            pts = arrays[-1]
            Xq, Xp = info["velocity"]
            vq = grid.interpolate(Xq, pts[:, 0], pts[:, 1])
            vp = grid.interpolate(Xp, pts[:, 0], pts[:, 1])
            tends += (np.stack([vq, vp], axis=1),)
        return tends, info

    def abort(reason, arrays, t):
        result.aborted, result.abort_reason = True, reason
        result.states.append(ops.pack(state, arrays[:n_model]))
        result.times.append(t)

    dt = cfg.dt
    t = 0.0
    for step in range(cfg.steps + 1):
        try:
            k1, info1 = full_rhs(y)
        except NumericalAbort as exc:
            abort(str(exc), y, t)
            break
        if step % cfg.sample_every == 0 or step == cfg.steps:
            snap = ops.pack(state, tuple(np.array(a, copy=True) for a in y[:n_model]))
            result.times.append(t)
            if keep_states or step == cfg.steps:  # final state always kept
                result.states.append(snap)
            pts = None if loop is None else y[-1].copy()
            if pts is not None:
                result.loop_points.append(pts)
            if sample_fn is not None:
                row = sample_fn(t, snap, pts, info1)
                if row is not None:
                    result.rows.append(row)
        if step == cfg.steps:
            break

        ratio = abs(dt) * info1["max_speed"] / minh
        result.cfl_max_seen = max(result.cfl_max_seen, ratio)
        if ratio >= cfg.cfl_max:
            abort(f"CFL guard tripped at step {step}: dt*speed/h = {ratio:.3f} >= {cfg.cfl_max}",
                  y, t)
            break
        if ratio > cfg.cfl_warn and not warned_cfl:
            warnings.warn(f"advective CFL number {ratio:.3f} above {cfg.cfl_warn}", RuntimeWarning)
            warned_cfl = True

        k2, _ = full_rhs(tuple(a + 0.5 * dt * k for a, k in zip(y, k1)))
        k3, _ = full_rhs(tuple(a + 0.5 * dt * k for a, k in zip(y, k2)))
        k4, _ = full_rhs(tuple(a + dt * k for a, k in zip(y, k3)))
        y = tuple(
            a + (dt / 6.0) * (ka + 2.0 * kb + 2.0 * kc + kd)
            for a, ka, kb, kc, kd in zip(y, k1, k2, k3, k4)
        )
        if cfg.renormalize:
            y = ops.renorm(grid, y[:n_model]) + y[n_model:]
        if not all(np.all(np.isfinite(a)) for a in y):
            abort(f"non-finite state after step {step}", y, t + dt)
            break
        t += dt

    return result


def circle_loop(center, radius, K=256):
    """Closed polyline of K points on a circle (first point not repeated).

    Oriented clockwise in the (q, p) plane so that the circulation of p dq
    equals +(enclosed area).
    """
    th = np.linspace(0.0, -2 * np.pi, K, endpoint=False)
    return np.stack([center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1)
