"""Evolution models and the fixed-step RK4 driver.

Models
------
* ``mean_field``            (D, rho): D advected by Tr(rho H), rho rotated by
                            the D-averaged Hamiltonian (``states.MeanFieldState``).
* ``ehrenfest_density``     P transported along <X_H> and rotated by [H, .].
* ``ehrenfest_uhlmann``     (D, W) form, transported along the pairing
                            X = Re Tr(W^dag X_H W).
* ``ehrenfest_conditional`` (D, psi) form: the same right-hand side, with psi
                            taken as the n x 1 wave operator W = psi[..., None].
* ``beyond_ehrenfest``      P with the gradient-corrected vector field and the
                            modified Hamiltonian (Sigma-hat terms).

``MODELS`` is the one registry of the models: for each, the state type it
evolves, the maps between that state and the tuple of arrays RK4 advances,
the right-hand side ``rhs(grid, ham, arrays, out=None, residual=False) ->
(tendencies, info)`` and the renormalisation; outside it a state is read
through the protocol of ``states`` (``energy_of`` reads any ``compose()``).
Every right-hand side reports its transport velocity, which the loop tracer
reads. ``max_speed`` is the one place the largest speed is taken from it:
``cfl_dt`` reads it once and ``rk4_run``'s CFL guard once per step, on the
first stage, since the other stages need only the velocity. Both density
models end in one tendency, -div(P X) - (i/hbar)[H, P]. The vacuum floor is
``states.vacuum_floor`` throughout; only the density right-hand sides take
its factor, so that at 0 a zero-trace region aborts.

Every right-hand side writes its tendencies into ``out`` when given (and
into fresh arrays without it, as ``cfl_dt`` and the equilibria need); its
fluxes, gradients and commutators are ``grids.scratch`` buffers, kept across
calls. ``rk4_run`` owns three arrays per state array, reused by every step:
the stage input, the tendency being filled and the running sum of the
tendencies, folded in the order of the written formula, so the result has
the bits of y + (dt/6)(k1 + 2k2 + 2k3 + k4). A step therefore allocates no
field-sized array, which the kernel would otherwise fault in afresh.

Every matrix or vector field the models read or write is stored as
contiguous component planes (``grids.component_major``): the states and the
Hamiltonian convert on construction, and each array a right-hand side or
the driver allocates (tendencies, scratch buffers, stage arrays) takes the
layout of its input. The right-hand sides also accept interleaved arrays and
give the same bits on them; only speed depends on the layout.

All transport terms use the conservative form div(field * velocity); with the
antisymmetric stencils the grid sum of such a divergence telescopes to zero,
so total mass is conserved to round-off. Hermitian tendencies are symmetrized
each stage. The anti-Hermitian residual before symmetrizing, a
discretization health metric, is computed only where a diagnostic row reads
it: the driver asks for it (``residual``) on the first stage of a sampled
step. The integrator is classic RK4 with a CFL guard; no adaptivity, so
conservation drifts carry a clean dt^4 signal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (antiherm_residual, comm, frobenius_norm, hermitize, mm, scratch, tr_prod,
                    trace_field)
from .states import (EPS_D_REL, ConditionalSplit, HybridDensity, MeanFieldState, UhlmannSplit,
                     vacuum_floor)


class NumericalAbort(RuntimeError):
    """Evolution produced NaN/Inf or broke the CFL guard."""


@dataclass
class StepperConfig:
    dt: float
    steps: int
    sample_every: int = 1
    renormalize: bool = False
    cfl_warn: float = 0.35
    cfl_max: float = 0.5


# -- right-hand sides ----------------------------------------------------------


def _outputs(out, *arrays):
    """The tendency arrays: ``out`` when given, else fresh arrays shaped and
    laid out like the state ``arrays``, complex where they are."""
    if out is not None:
        return tuple(out)
    return tuple(np.empty_like(a, dtype=np.result_type(a, 1.0)) for a in arrays)


def mean_field_rhs(grid, D, rho, ham, out=None):
    """Tendencies of the factorized model.

    dD/dt = {Tr(rho H), D};  i hbar drho/dt = [integral(D H), rho].
    The effective classical Hamiltonian gradient is assembled from the
    catalog's analytic gradients.
    """
    D, rho = np.asarray(D), np.asarray(rho, dtype=complex)
    dD, drho = _outputs(out, D, rho)
    dHeff_q = tr_prod(rho, ham.dH_q)
    dHeff_p = tr_prod(rho, ham.dH_p)
    grad = scratch(D.shape, dD.dtype, "mean_field.grad")
    np.multiply(dHeff_q, grid.partial_p(D, out=grad), out=dD)
    dD -= np.multiply(grid.partial_q(D, out=grad), dHeff_p, out=grad)
    DH = scratch(ham.H.shape, np.result_type(D, ham.H), "mean_field.DH", like=ham.H)
    Hbar = hermitize(grid.integrate(np.multiply(D[..., None, None], ham.H, out=DH)))
    comm(Hbar, rho, out=drho)
    drho *= -1j / grid.hbar
    return (dD, drho), {"velocity": (dHeff_p, -dHeff_q)}


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


def _density_tendency(grid, P, Xq, Xp, H, out, residual):
    """The density models' tendency -div(P X) - (i/hbar)[H, P], symmetrized
    into ``out`` (or a fresh array), with its info dict; a
    ``NumericalAbort`` names the first grid point where it is not finite.

    With ``residual`` the info also holds ``antiherm_resid``, the
    anti-Hermitian residual of the tendency before symmetrizing."""
    (dP,) = _outputs(out, P)
    flux = scratch(P.shape, complex, "density.flux", like=P)
    tend = grid.partial_q(np.multiply(P, Xq[..., None, None], out=flux),
                          out=scratch(P.shape, complex, "density.tend", like=P))
    tend += grid.partial_p(np.multiply(P, Xp[..., None, None], out=flux),
                           out=scratch(P.shape, complex, "density.dp", like=P))
    np.negative(tend, out=tend)
    rot = comm(H, P, out=flux)
    rot *= -1j / grid.hbar
    tend += rot
    if not np.all(np.isfinite(tend)):
        bad = np.argwhere(~np.all(np.isfinite(tend), axis=(-2, -1)))[0]
        raise NumericalAbort(f"non-finite tendency at grid point {tuple(bad)}")
    info = {"velocity": (Xq, Xp)}
    if residual:
        info["antiherm_resid"] = antiherm_residual(tend)
    return (hermitize(tend, out=dP),), info


def ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL, out=None, residual=True):
    """dP/dt = -div(P <X_H>) - (i/hbar)[H, P], symmetrized; with
    ``residual`` the info holds ``antiherm_resid``."""
    P = np.asarray(P, dtype=complex)
    denom = _regularized_trace(P, eps_tr_rel)
    Xq = tr_prod(P, ham.X_q) / denom
    Xp = tr_prod(P, ham.X_p) / denom
    return _density_tendency(grid, P, Xq, Xp, ham.H, out, residual)


def pairing(W, *Xs):
    """Re Tr(W^dag X W) at every grid point, for each matrix field X of
    ``Xs``: X averaged over the conditional state W (a transport velocity
    when X is X_H). One array per X; a single X gives its array alone.

    Re Tr(W^dag X W) = Re Tr(X R) with the local density R = W W^dag, formed
    once for all the X and one entry plane at a time, each entry with the
    sums of ``mm`` (R_ab = sum_c W_ac conj(W_bc)), so that R is exactly
    Hermitian. Its real diagonal reads Re X_aa, and each off-diagonal pair
    a < b is read once, as Re R_ab (Re X_ab + Re X_ba) + Im R_ab (Im X_ab -
    Im X_ba): exact for any square X, Hermitian or not.
    """
    W = np.asarray(W, dtype=complex)
    n, m = W.shape[-2:]
    lead = W.shape[:-2]
    R, conj_w = scratch(lead, complex, "pairing.R"), scratch(lead, complex, "pairing.conj")
    term = scratch(lead, float, "pairing.term")
    velocities = tuple(np.empty(lead) for _ in Xs)
    for a in range(n):
        for b in range(a, n):
            for c in range(m):
                np.conjugate(W[..., b, c], out=conj_w)
                if c == 0:
                    np.multiply(W[..., a, c], conj_w, out=R)
                else:
                    R += np.multiply(W[..., a, c], conj_w, out=conj_w)
            for X, v in zip(Xs, velocities):
                if a == b == 0:
                    np.multiply(X[..., 0, 0].real, R.real, out=v)
                elif a == b:
                    v += np.multiply(X[..., a, a].real, R.real, out=term)
                else:
                    np.add(X[..., a, b].real, X[..., b, a].real, out=term)
                    term *= R.real
                    v += term
                    np.subtract(X[..., a, b].imag, X[..., b, a].imag, out=term)
                    term *= R.imag
                    v += term
    return velocities[0] if len(velocities) == 1 else velocities


def _as_waveop(W):
    """A state vector field psi, shape (Nq, Np, n), as the n x 1 W = psi[..., None]."""
    return W if W.ndim == 4 else W[..., None]


def uhlmann_rhs(grid, D, W, ham, out=None):
    """System dD/dt = -div(D X), i hbar (d_t + X.grad) W = H W,
    with X = Re Tr(W^dag X_H W) pointwise.

    ``W`` may be a state vector field psi of shape (Nq, Np, n), taken as the
    n x 1 operator psi[..., None]; its tendency keeps the shape it was given.
    """
    D, W = np.asarray(D), np.asarray(W, dtype=complex)
    dD, dW = _outputs(out, D, W)
    Wm, dWm = _as_waveop(W), _as_waveop(dW)
    Xq, Xp = pairing(Wm, ham.X_q, ham.X_p)
    flux = scratch(D.shape, dD.dtype, "uhlmann.flux")
    grid.partial_q(np.multiply(D, Xq, out=flux), out=dD)
    dD += grid.partial_p(np.multiply(D, Xp, out=flux), out=scratch(D.shape, dD.dtype, "uhlmann.dp"))
    np.negative(dD, out=dD)
    mm(ham.H, Wm, out=dWm)
    dWm *= -1j / grid.hbar
    grad = scratch(Wm.shape, complex, "uhlmann.grad", like=Wm)
    dWm -= np.multiply(grid.partial_q(Wm, out=grad), Xq[..., None, None], out=grad)
    dWm -= np.multiply(grid.partial_p(Wm, out=grad), Xp[..., None, None], out=grad)
    return (dD, dW), {"velocity": (Xq, Xp)}


def conditional_rhs(grid, D, psi, ham, out=None):
    """The (D, psi) system: ``uhlmann_rhs`` with psi as an n x 1 wave operator."""
    return uhlmann_rhs(grid, D, psi, ham, out)


def beyond_ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL, out=None, residual=True):
    """Gradient-corrected model: dP/dt = -div(P X) - (i/hbar)[scriptH, P].

    X_k   = <X_H>_k + (1/D) Tr(X_H . grad Sigma_k - Sigma . grad X_H,k)
    Sigma = (i hbar / 2D) [P, X_P],  X_P = (d_p P, -d_q P)
    scriptH = H + (i hbar / D) [grad P - P grad ln sqrt(D), X_H]

    Dots contract the 2-component phase-space index; matrix products are kept
    in the written (left-to-right) order. Every (Nq, Np, n, n) intermediate
    lives in scratch.
    """
    P = np.asarray(P, dtype=complex)
    hbar = grid.hbar
    D = _regularized_trace(P, eps_tr_rel)
    Dmat = D[..., None, None]

    def buf(tag):
        return scratch(P.shape, complex, "beyond." + tag, like=P)

    dPq = grid.partial_q(P, out=buf("dPq"))
    dPp = grid.partial_p(P, out=buf("dPp"))
    XP = (dPp, np.negative(dPq, out=buf("-dPq")))
    XH = (ham.X_q, ham.X_p)
    dXH = _beyond_xh_grads(grid, ham)

    Sig = tuple(comm(P, XPk, out=buf(f"Sig{k}")) for k, XPk in enumerate(XP))
    for Sk in Sig:
        Sk *= 0.5j * hbar
        Sk /= Dmat
    dSig = tuple((grid.partial_q(Sk, out=buf(f"dSig{k}q")), grid.partial_p(Sk, out=buf(f"dSig{k}p")))
                 for k, Sk in enumerate(Sig))

    avgX = tuple(tr_prod(P, XHk) / D for XHk in XH)
    calX = []
    for k in range(2):
        corr = tr_prod(XH[0], dSig[k][0]) + tr_prod(XH[1], dSig[k][1])
        corr -= tr_prod(Sig[0], dXH[k][0]) + tr_prod(Sig[1], dXH[k][1])
        calX.append(avgX[k] + corr / D)

    dlnsq = 0.5 * grid.partial_q(D) / D
    dlnsp = 0.5 * grid.partial_p(D) / D
    # G_k = d_k P - P d_k ln sqrt(D), over the spent Sigma buffers
    G = tuple(np.subtract(dPk, np.multiply(P, dlns[..., None, None], out=Gk), out=Gk)
              for dPk, dlns, Gk in ((dPq, dlnsq, Sig[0]), (dPp, dlnsp, Sig[1])))
    GX = comm(G[0], XH[0], out=buf("GX"))
    GX += comm(G[1], XH[1], out=dPq)  # the gradients of P are spent
    GX *= 1j * hbar
    GX /= Dmat
    scrH = hermitize(np.add(ham.H, GX, out=GX), out=dPp)

    return _density_tendency(grid, P, calX[0], calX[1], scrH, out, residual)


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
    """Hamiltonian functional of the given model at any state, from its ``compose()``."""
    grid = state.grid
    P = state.compose().P
    e = float(grid.integrate(tr_prod(P, ham.H)))
    if model == "beyond_ehrenfest":
        Sig = beyond_sigma_grad(grid, P)
        extra = tr_prod(Sig[0], ham.X_q) + tr_prod(Sig[1], ham.X_p)
        e += float(grid.integrate(extra))
    return e


# -- model registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A model's glue: the state type it evolves (``state_type(grid,
    *arrays)`` builds one), state -> array tuple (``unpack``), the right-hand
    side ``rhs(grid, ham, arrays, out=None, residual=False) -> (tendencies,
    info)`` and the renormalisation ``renorm(grid, arrays)``.

    ``rhs`` writes its tendencies into the arrays ``out`` when given and
    returns them; ``residual`` asks a density model for ``antiherm_resid``
    in the info (the other models have none)."""

    state_type: type
    unpack: Callable
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
    norms = frobenius_norm(Wm)
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
        lambda grid, ham, a, out=None, residual=False: mean_field_rhs(grid, a[0], a[1], ham, out),
        _mf_renorm,
    ),
    "ehrenfest_density": Model(
        HybridDensity,
        lambda s: (s.P,),
        lambda grid, ham, a, out=None, residual=False: ehrenfest_rhs(
            grid, a[0], ham, out=out, residual=residual),
        _dens_renorm,
    ),
    "ehrenfest_conditional": Model(
        ConditionalSplit,
        lambda s: (s.D, s.psi),
        lambda grid, ham, a, out=None, residual=False: conditional_rhs(grid, a[0], a[1], ham, out),
        _split_renorm,
    ),
    "ehrenfest_uhlmann": Model(
        UhlmannSplit,
        lambda s: (s.D, s.W),
        lambda grid, ham, a, out=None, residual=False: uhlmann_rhs(grid, a[0], a[1], ham, out),
        _split_renorm,
    ),
    "beyond_ehrenfest": Model(
        HybridDensity,
        lambda s: (s.P,),
        lambda grid, ham, a, out=None, residual=False: beyond_ehrenfest_rhs(
            grid, a[0], ham, out=out, residual=residual),
        _dens_renorm,
    ),
}


def max_speed(info):
    """The largest transport speed |X| on the grid, from the velocity in a
    right-hand side's ``info``: the one speed the CFL step size and guard read."""
    return float(np.max(np.hypot(*info["velocity"])))


def cfl_dt(model, state, ham, cfl):
    """Step size at advective CFL number ``cfl`` for the largest transport
    speed of the model's right-hand side at ``state``."""
    spec = MODELS[model]
    grid = state.grid
    _, info = spec.rhs(grid, ham, spec.unpack(state))
    return float(cfl) * min(grid.dq, grid.dp) / max(max_speed(info), 1e-12)


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
    # per state array: the stage input, the tendency being filled and the
    # running sum of the tendencies, reused by every step
    stage, k, ksum = (tuple(np.empty_like(a) for a in y) for _ in range(3))
    minh = min(grid.dq, grid.dp)
    result = RunResult()
    warned_cfl = False

    def full_rhs(arrays, out, residual=False):
        _, info = ops.rhs(grid, ham, arrays[:n_model], out[:n_model], residual)
        if loop is not None:
            pts = arrays[-1]
            velocity = np.stack(info["velocity"], axis=-1)  # both components in one call
            out[-1][...] = grid.interpolate(velocity, pts[:, 0], pts[:, 1])
        return info

    def stage_input(tends, h):
        for s, kk, a in zip(stage, tends, y):
            np.multiply(kk, h, out=s)
            s += a

    def fold_twice(tends):
        for s, kk in zip(ksum, tends):
            kk *= 2.0
            s += kk

    def abort(reason, arrays, t):
        result.aborted, result.abort_reason = True, reason
        result.states.append(ops.state_type(grid, *arrays[:n_model]))
        result.times.append(t)

    dt = cfg.dt
    t = 0.0
    for step in range(cfg.steps + 1):
        sampled = step % cfg.sample_every == 0 or step == cfg.steps
        try:
            # k1 goes straight into the running sum
            info1 = full_rhs(y, ksum, residual=sampled and sample_fn is not None)
        except NumericalAbort as exc:
            abort(str(exc), y, t)
            break
        if sampled:
            snap = ops.state_type(grid, *(np.array(a, copy=True) for a in y[:n_model]))
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

        ratio = abs(dt) * max_speed(info1) / minh
        result.cfl_max_seen = max(result.cfl_max_seen, ratio)
        if ratio >= cfg.cfl_max:
            abort(f"CFL guard tripped at step {step}: dt*speed/h = {ratio:.3f} >= {cfg.cfl_max}",
                  y, t)
            break
        if ratio > cfg.cfl_warn and not warned_cfl:
            warnings.warn(f"advective CFL number {ratio:.3f} above {cfg.cfl_warn}", RuntimeWarning)
            warned_cfl = True

        # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), each stage input y + c dt k
        # built before its k is folded into the sum
        stage_input(ksum, 0.5 * dt)
        full_rhs(stage, k)
        stage_input(k, 0.5 * dt)
        fold_twice(k)
        full_rhs(stage, k)
        stage_input(k, dt)
        fold_twice(k)
        full_rhs(stage, k)
        for a, s, kk in zip(y, ksum, k):
            s += kk
            s *= dt / 6.0
            a += s
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
