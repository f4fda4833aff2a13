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
the right-hand side ``rhs(grid, ham, arrays, out=None) -> (tendencies,
velocity)`` and the renormalisation; outside it a state is read through the
protocol of ``states`` (``energy_of`` reads any ``compose()``).
Every right-hand side returns its transport velocity, which the loop tracer
reads, in one layout: one fresh (2, Nq, Np) float array, the q and p
components as its two planes, each written in place. The tracer hands
``grids.interpolate`` its (Nq, Np, 2) view, which it reads as planes without
a copy. ``max_speed`` is the one place the largest speed is taken from it:
``cfl_dt`` reads it once and ``rk4_run``'s CFL guard once per step, on the
first stage, since the other stages need only the velocity.
Both density models end in one tendency, -div(P X) - (i/hbar)[H, P]. The
vacuum floor is ``states.vacuum_floor`` throughout; only the density
right-hand sides take its factor, so that at 0 a zero-trace region aborts.

The mean field and the density right-hand sides read only the Hermitian
part of rho or P: each takes ``hermitize`` once at entry (the input itself,
bit for bit, when it is exactly Hermitian, as every state ``rk4_run`` makes
from a Hermitian start is). Every operand after that is Hermitian, so their
commutators are ``grids.hcomm`` and their traces Re Tr(X R)
``grids.pair_hermitian`` against the Hamiltonian's static planes
(``X_planes``, ``dX_planes``); the mean field's constant rho broadcasts
against them. So the density tendency is Hermitian by construction, with no
symmetrizing pass: X is real, the stencil linear with real weights and
``hcomm`` exactly anti-Hermitian.

The split models' velocity is the pairing X = Re Tr(W^dag X_H W), and
``grids.pair_planes`` is its one kernel: it forms the local density
R = W W^dag one entry at a time and meets each entry with the components
of X_H, read from the same static planes (built on first use), and with
the accumulation of ``pair_hermitian``. So every velocity pairing sums the
same terms in the same order, and skips the same identically zero planes
(the Hamiltonian's live index): an X_H component with no live plane is
written as exact +0.0, which the loop tracer and ``max_speed`` read.

The split models, the Ehrenfest density model and the mean field move
along the plain pairing with X_H, which cannot move along an axis whose
X_H component vanishes everywhere. They form fluxes, stencils and
advection products only along ``Hamiltonian.X_axes`` (the nanowire's q
alone). The beyond model's Sigma-hat correction moves along p even where
X_p = 0, so it transports along both axes and skips only the hcomm(G_k,
X_k) of a vanishing X_k.

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
so total mass is conserved to round-off. The integrator is classic RK4 with
a CFL guard; no adaptivity, so conservation drifts carry a clean dt^4 signal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (_grid_first, frobenius_norm, hcomm, hermitize, mm, pair_hermitian,
                    pair_planes, scratch, tr_prod, trace_field)
from .states import (EPS_D_REL, ConditionalSplit, HybridDensity, MeanFieldState, UhlmannSplit,
                     vacuum_floor)


class NumericalAbort(RuntimeError):
    """Evolution produced NaN/Inf or broke the CFL guard."""


# The CFL guard of ``rk4_run``: an advective CFL number dt |X| / h above
# CFL_WARN warns once per run, and one at or above CFL_MAX aborts it.
CFL_WARN = 0.35
CFL_MAX = 0.5

# The most work one command may ask for, counted as the RK4 steps (or the
# casimir-check probes) times the Nq Np n^2 entries of a matrix field. The
# presets ask for at most 2.4e7 at 64^2 and 1.9e8 at 128^2 (both
# nanowire_meanfield); a config that sets a speed, a time or a count of 1e6
# asks for more. A convergence level k may ask for 8^k times as much.
WORK_CAP = 2 * 10**8


def excess_work(count, what, grid, n, allowance=1):
    """Why ``count`` sweeps (``what``: steps or probes) of n x n fields on
    ``grid`` ask for too much, giving the count, when they ask for more than
    ``allowance`` times ``WORK_CAP`` field entries; None when they do not."""
    work, cap = count * grid.Nq * grid.Np * n * n, allowance * WORK_CAP
    if work > cap:
        return (f"{count} {what} on {grid.Nq} x {grid.Np} points of {n} x {n} fields "
                f"ask for {work:.3g} field entries, above the cap of {cap:.3g}")
    return None


@dataclass
class StepperConfig:
    dt: float
    steps: int
    sample_every: int = 1
    renormalize: bool = False


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
    The transport velocity is <X_H> = Re Tr(rho X_H) = (dHeff_p, -dHeff_q),
    read from the Hamiltonian's static planes; rho enters through its
    Hermitian part, as P does in the density models.
    """
    D, rho = np.asarray(D), _hermitian_part(rho)
    dD, drho = _outputs(out, D, rho)
    velocity = pair_hermitian(rho[None, None], ham.X_planes, ham.X_live,
                              np.empty((2,) + D.shape))
    # {Tr(rho H), D} = -(v_q d_q D + v_p d_p D), along the live axes of X_H
    grad = scratch(D.shape, dD.dtype, "mean_field.grad")
    _sum_along(ham.X_axes, lambda k, into: np.multiply(
        velocity[k], _partial(grid, k)(D, out=grad), out=into), dD, grad)
    np.negative(dD, out=dD)
    DH = scratch(ham.H.shape, np.result_type(D, ham.H), "mean_field.DH", like=ham.H)
    Hbar = hermitize(grid.integrate(np.multiply(D[..., None, None], ham.H, out=DH)))
    hcomm(Hbar, rho, out=drho)
    drho *= -1j / grid.hbar
    return (dD, drho), velocity


def _partial(grid, k):
    """The stencil along phase-space axis ``k`` (0 = q, 1 = p)."""
    return grid.partial_p if k else grid.partial_q


def _sum_along(axes, term, out, buf):
    """The sum over the phase-space ``axes`` k, in order, of the terms
    ``term(k, into)``, each written into the array ``into`` it is given: the
    first into ``out``, each later one into ``buf`` and added. +0.0 with no
    axis. Returns ``out``."""
    if not axes:
        out[...] = 0.0
    for i, k in enumerate(axes):
        if i == 0:
            term(k, out)
        else:
            out += term(k, buf)
    return out


def _divergence(grid, F, velocity, axes, out, flux, buf):
    """div(F X) = sum_k d_k(F X_k) into ``out``, for the (2, Nq, Np)
    ``velocity`` X and a field F, over the ``axes`` k: the conservative
    transport of every model. ``flux`` and ``buf`` are buffers shaped like F."""
    def term(k, into):
        np.multiply(F, velocity[k].reshape(velocity.shape[1:] + (1,) * (F.ndim - 2)), out=flux)
        return _partial(grid, k)(flux, out=into)

    return _sum_along(axes, term, out, buf)


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


def _hermitian_part(P):
    """The Hermitian part of the density P (or the mean field's rho), in
    scratch: all a right-hand side reads of it (for an exactly Hermitian P,
    P itself)."""
    P = np.asarray(P, dtype=complex)
    return hermitize(P, out=scratch(P.shape, complex, "density.P", like=P))


def _density_tendency(grid, P, velocity, axes, H, out):
    """The density models' tendency -div(P X) - (i/hbar)[H, P], with X the
    (2, Nq, Np) ``velocity``, transported along its ``axes``, and H and P
    Hermitian, written into ``out`` (or a fresh array) and returned with X;
    a ``NumericalAbort`` names the first grid point where it is not finite."""
    (dP,) = _outputs(out, P)
    flux = scratch(P.shape, complex, "density.flux", like=P)
    _divergence(grid, P, velocity, axes, dP, flux, scratch(P.shape, complex, "density.dp", like=P))
    np.negative(dP, out=dP)
    rot = hcomm(H, P, out=flux)
    rot *= -1j / grid.hbar
    dP += rot
    if not np.all(np.isfinite(dP)):
        bad = np.argwhere(~np.all(np.isfinite(dP), axis=(-2, -1)))[0]
        raise NumericalAbort(f"non-finite tendency at grid point {tuple(bad)}")
    return (dP,), velocity


def ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL, out=None):
    """dP/dt = -div(P <X_H>) - (i/hbar)[H, P]."""
    P = _hermitian_part(P)
    velocity = pair_hermitian(P, ham.X_planes, ham.X_live, np.empty((2,) + P.shape[:2]))
    velocity /= _regularized_trace(P, eps_tr_rel)
    return _density_tendency(grid, P, velocity, ham.X_axes, ham.H, out)


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
    velocity = pair_planes(Wm, ham.X_planes, ham.X_live, np.empty((2,) + D.shape))
    _divergence(grid, D, velocity, ham.X_axes, dD, scratch(D.shape, dD.dtype, "uhlmann.flux"),
                scratch(D.shape, dD.dtype, "uhlmann.dp"))
    np.negative(dD, out=dD)
    mm(ham.H, Wm, out=dWm)
    dWm *= -1j / grid.hbar
    grad = scratch(Wm.shape, complex, "uhlmann.grad", like=Wm)
    for k in ham.X_axes:
        dWm -= np.multiply(_partial(grid, k)(Wm, out=grad), velocity[k][..., None, None], out=grad)
    return (dD, dW), velocity


def conditional_rhs(grid, D, psi, ham, out=None):
    """The (D, psi) system: ``uhlmann_rhs`` with psi as an n x 1 wave operator."""
    return uhlmann_rhs(grid, D, psi, ham, out)


def beyond_ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL, out=None):
    """Gradient-corrected model: dP/dt = -div(P X) - (i/hbar)[scriptH, P].

    X_k   = <X_H>_k + (1/D) Tr(X_H . grad Sigma_k - Sigma . grad X_H,k)
    Sigma = (i hbar / 2D) [P, X_P],  X_P = (d_p P, -d_q P)
    scriptH = H + (i hbar / D) [grad P - P grad ln sqrt(D), X_H]

    Dots contract the 2-component phase-space index. Both Sigma, and then
    their four gradients, are one stacked field each (one stencil call per
    axis). Every (Nq, Np, n, n) intermediate lives in scratch.
    """
    P = _hermitian_part(P)
    D = _regularized_trace(P, eps_tr_rel)
    inv_D = 1.0 / D

    def buf(tag, stack=()):
        return scratch(P.shape[:2] + stack + P.shape[2:], complex, "beyond." + tag, like=P)

    dPq = grid.partial_q(P, out=buf("dPq"))
    dPp = grid.partial_p(P, out=buf("dPp"))
    Sig = beyond_sigma(grid, P, inv_D, (dPp, dPq), (1.0, -1.0), out=buf("Sig", (2,)))
    dSig = buf("dSig", (2, 2))  # [j, k]: d_j Sigma_k
    grid.partial_q(Sig, out=dSig[:, :, 0])
    grid.partial_p(Sig, out=dSig[:, :, 1])

    calX = pair_hermitian(P, ham.X_planes, ham.X_live, np.empty((2,) + D.shape))
    grad_sig = pair_hermitian(dSig, ham.X_planes[:, :, None], ham.X_live,
                              scratch((2, 2) + D.shape, float, "beyond.grad_sig"))
    sig_grad = pair_hermitian(Sig, ham.dX_planes, ham.dX_live,
                              scratch((2, 2) + D.shape, float, "beyond.sig_grad"))
    # Tr(X_H . grad Sigma_k) - Tr(Sigma . grad X_H,k), indexed [j, k] and [k, j]
    corr = np.add(grad_sig[0], grad_sig[1], out=scratch(calX.shape, float, "beyond.corr"))
    corr -= np.add(sig_grad[:, 0], sig_grad[:, 1], out=grad_sig[0])
    calX += corr
    calX *= inv_D

    # G_k = d_k P - P d_k ln sqrt(D), over the spent Sigma stack; d_k D is
    # Tr d_k P (the stencil is linear and takes the floor's constant to 0)
    G = Sig
    for k, dPk in enumerate((dPq, dPp)):
        dlns = trace_field(dPk)
        dlns *= 0.5
        dlns *= inv_D
        np.subtract(dPk, np.multiply(P, dlns[..., None, None], out=G[:, :, k]), out=G[:, :, k])
    # sum_k hcomm(G_k, X_k) over the X_k that are not identically zero; the
    # gradients of P are spent
    GX = _sum_along(ham.X_axes, lambda k, into: hcomm(G[:, :, k], ham.X_p if k else ham.X_q,
                                                      out=into), buf("GX"), dPq)
    GX *= ((1j * grid.hbar) * inv_D)[..., None, None]
    # Hermitian as it stands: H plus i/D times a sum of hcomm
    scrH = np.add(ham.H, GX, out=dPp)

    # the Sigma-hat correction transports along p even where X_p vanishes
    return _density_tendency(grid, P, calX, (0, 1), scrH, out)


def beyond_sigma(grid, P, inv_D, grads, signs, out):
    """The Sigma-hat terms s_k (i hbar / 2D) [P, grads[k]] of the beyond
    model, stacked into ``out`` (Nq, Np, K, n, n) and returned, for a
    Hermitian P, its Hermitian gradient fields ``grads``, signs ``s`` and
    ``inv_D`` = 1/D: the one source of the right-hand side's Sigma
    (grads (d_p P, d_q P), signs (1, -1): X_P = (d_p P, -d_q P)) and of the
    energy's gradient-indexed one (grads (d_q P, d_p P), signs (1, 1)).

    The energy pairs the gradient-indexed components straight against
    (X_H,q, X_H,p); equivalently, the symplectically-indexed Sigma-hat of the
    evolution equation is paired with X_H through the symplectic form. That
    index convention is the one the flow actually conserves (the straight
    X-on-X pairing is not a constant of motion).
    """
    for k, (G, sign) in enumerate(zip(grads, signs)):
        Sk = hcomm(P, G, out=out[:, :, k])
        Sk *= ((sign * 0.5j * grid.hbar) * inv_D)[..., None, None]
    return out


def energy_of(model, state, ham):
    """Hamiltonian functional of the given model at any state, from its ``compose()``."""
    grid = state.grid
    P = state.compose().P
    e = float(grid.integrate(tr_prod(P, ham.H)))
    if model == "beyond_ehrenfest":
        P = hermitize(P)
        grads = (grid.partial_q(P), grid.partial_p(P))
        stacked = scratch(P.shape[:2] + (2,) + P.shape[2:], complex, "energy.Sig", like=P)
        Sig = beyond_sigma(grid, P, 1.0 / _regularized_trace(P), grads, (1.0, 1.0), out=stacked)
        pairs = pair_hermitian(Sig, ham.X_planes, ham.X_live, np.empty((2,) + grid.shape))
        e += float(grid.integrate(pairs[0] + pairs[1]))
    return e


# -- model registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A model's glue: the state type it evolves (``state_type(grid,
    *arrays)`` builds one), state -> array tuple (``unpack``), the right-hand
    side ``rhs(grid, ham, arrays, out=None) -> (tendencies, velocity)`` and
    the renormalisation ``renorm(grid, arrays)``.

    ``rhs`` writes its tendencies into the arrays ``out`` when given and
    returns them with the (2, Nq, Np) transport velocity."""

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
        lambda grid, ham, a, out=None: mean_field_rhs(grid, a[0], a[1], ham, out),
        _mf_renorm,
    ),
    "ehrenfest_density": Model(
        HybridDensity,
        lambda s: (s.P,),
        lambda grid, ham, a, out=None: ehrenfest_rhs(grid, a[0], ham, out=out),
        _dens_renorm,
    ),
    "ehrenfest_conditional": Model(
        ConditionalSplit,
        lambda s: (s.D, s.psi),
        lambda grid, ham, a, out=None: conditional_rhs(grid, a[0], a[1], ham, out),
        _split_renorm,
    ),
    "ehrenfest_uhlmann": Model(
        UhlmannSplit,
        lambda s: (s.D, s.W),
        lambda grid, ham, a, out=None: uhlmann_rhs(grid, a[0], a[1], ham, out),
        _split_renorm,
    ),
    "beyond_ehrenfest": Model(
        HybridDensity,
        lambda s: (s.P,),
        lambda grid, ham, a, out=None: beyond_ehrenfest_rhs(grid, a[0], ham, out=out),
        _dens_renorm,
    ),
}


def max_speed(velocity):
    """The largest transport speed |X| on the grid, from a right-hand side's
    (2, Nq, Np) ``velocity``: the one speed the CFL step size and guard read."""
    return float(np.max(np.hypot(*velocity)))


def cfl_dt(model, state, ham, cfl):
    """Step size at advective CFL number ``cfl`` for the largest transport
    speed of the model's right-hand side at ``state``."""
    spec = MODELS[model]
    grid = state.grid
    _, velocity = spec.rhs(grid, ham, spec.unpack(state))
    return float(cfl) * min(grid.dq, grid.dp) / max(max_speed(velocity), 1e-12)


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

    ``sample_fn(t, state, loop_pts, velocity)`` is called every
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

    def full_rhs(arrays, out):
        _, velocity = ops.rhs(grid, ham, arrays[:n_model], out[:n_model])
        if loop is not None:
            pts = arrays[-1]  # both components in one call, read as planes
            out[-1][...] = grid.interpolate(_grid_first(velocity), pts[:, 0], pts[:, 1])
        return velocity

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
            velocity1 = full_rhs(y, ksum)
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
                row = sample_fn(t, snap, pts, velocity1)
                if row is not None:
                    result.rows.append(row)
        if step == cfg.steps:
            break

        ratio = abs(dt) * max_speed(velocity1) / minh
        result.cfl_max_seen = max(result.cfl_max_seen, ratio)
        if ratio >= CFL_MAX:
            abort(f"CFL guard tripped at step {step}: dt*speed/h = {ratio:.3f} >= {CFL_MAX}",
                  y, t)
            break
        if ratio > CFL_WARN and not warned_cfl:
            warnings.warn(f"advective CFL number {ratio:.3f} above {CFL_WARN}", RuntimeWarning)
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
