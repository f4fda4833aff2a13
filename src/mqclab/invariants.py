"""Entropy/Casimir functionals, the hybrid Poisson bracket, the Poincare loop
invariant, and the Liouville-volume transport residual.

Functional families (P = hybrid density, D = Tr P, rho = P / Tr P):

* ``C1(Phi)``        integral of D * Phi(rho), Phi a spectral trace function;
* ``C2(Sigma)``      integral of D * Sigma(Lambda / D) for split states;
* ``C(Gamma)``       integral of D * Gamma(W W^dag, Lambda / D), the general
                     family containing both of the above and the Renyi-type
                     invariants Gamma(A, x) = x^(1-alpha) Tr A^alpha;
* mean-field, pure and Uhlmann entropies and their Renyi extensions.

A split owns its Berry data, Liouville volume and conditional spectrum
(``split.berry``, ``split.Lambda``, ``split.spectrum``: computed once, as a
split is not changed in place once built); its functionals are pointwise
integrands over the support of D. Support and vacuum are drawn by the one
floor ``states.vacuum_floor``.

The hybrid bracket is evaluated as

    {{f, g}} = integral( [Tr(P dq(Gf)) Tr(dp(Gg) P) - (q <-> p)] / Tr P
               - Re Tr(P (i/hbar) [Gf, Gg]) ) dq dp,

with Gf = df/dP. Derivatives of the gradient-dependent Casimirs are assembled
analytically in the (D, W) variables and mapped back through the chain rule

    (df/dP) W = (df/dD) W - (1/2D) <df/dW, W> W + (1/2D) df/dW,

using the exact adjoints of the discrete stencils, so that each derivative is
the exact gradient of the discretized functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grids import (EIG_CLAMP, _grid_first, component_major, dagger, eigen_compose, eigvalsh_field,
                    frobenius_norm, hcomm, hermitize, mm, pair_planes, tr_prod, trace_field,
                    vn_entropy_trace)
from .hamiltonians import Hamiltonian
from .states import (
    HybridDensity,
    MeanFieldState,
    UhlmannSplit,
    outer,
    uhlmann_factor,
    vacuum_floor,
)
from . import dynamics as _dyn


# -- scalar and spectral function handles ---------------------------------------


@dataclass
class SpectralFn:
    """Phi: Her(n) -> R of trace type, Phi(A) = sum_i f(eig_i(A))."""

    name: str
    f: Callable
    df: Callable

    def value_of_eigs(self, w):
        return np.sum(self.f(w), axis=-1)

    def grad_matrix(self, w, v):
        return hermitize(eigen_compose(v, self.df(w)))


@dataclass
class ScalarFn:
    """Sigma: R -> R with derivative, applied to the volume ratio x."""

    name: str
    f: Callable
    df: Callable


def _safe_log(w):
    return np.log(np.maximum(w, EIG_CLAMP))


def spectral_fn(name) -> SpectralFn:
    if name == "neg_x_log_x_trace":
        return SpectralFn(
            name,
            lambda w: np.where(w > EIG_CLAMP, -w * _safe_log(w), 0.0),
            lambda w: -_safe_log(w) - 1.0,
        )
    if name == "quadratic":
        return SpectralFn(name, lambda w: w**2, lambda w: 2.0 * w)
    raise ValueError(f"unknown spectral function '{name}'")


def scalar_fn(name) -> ScalarFn:
    if name == "log":
        return ScalarFn(name, np.log, lambda x: 1.0 / x)
    if name == "quadratic":
        return ScalarFn(name, lambda x: x**2, lambda x: 2.0 * x)
    if name == "xlogx":
        return ScalarFn(
            name,
            lambda x: np.where(x > EIG_CLAMP, x * _safe_log(x), 0.0),
            lambda x: _safe_log(x) + 1.0,
        )
    raise ValueError(f"unknown scalar function '{name}'")


class GammaSpec:
    """Gamma(A, x) as a sum of built-in terms.

    Terms: ``("phi", SpectralFn)``, ``("sigma", ScalarFn)``, or
    ``("renyi", alpha)`` for x^(1-alpha) Tr A^alpha. The first two reproduce
    the C1 and C2 families exactly.
    """

    def __init__(self, terms):
        self.terms = list(terms)

    @classmethod
    def from_phi(cls, phi: SpectralFn):
        return cls([("phi", phi)])

    @classmethod
    def from_sigma(cls, sigma: ScalarFn):
        return cls([("sigma", sigma)])

    @classmethod
    def renyi(cls, alpha):
        return cls([("renyi", float(alpha))])

    @classmethod
    def entropy(cls):
        """Gamma(A, x) = -<A, ln A> + ln x, generating the Uhlmann entropy."""
        return cls([("phi", spectral_fn("neg_x_log_x_trace")), ("sigma", scalar_fn("log"))])

    def value(self, w, x):
        out = 0.0
        for kind, arg in self.terms:
            if kind == "phi":
                out = out + arg.value_of_eigs(w)
            elif kind == "sigma":
                out = out + arg.f(x)
            elif kind == "renyi":
                out = out + np.power(x, 1.0 - arg) * np.sum(
                    np.power(np.maximum(w, 0.0), arg), axis=-1
                )
        return out

    def grad_A(self, w, v, x):
        out = None
        for kind, arg in self.terms:
            if kind == "phi":
                g = arg.grad_matrix(w, v)
            elif kind == "renyi":
                pw = arg * np.power(np.maximum(w, EIG_CLAMP), arg - 1.0)
                g = np.power(x, 1.0 - arg)[..., None, None] * hermitize(eigen_compose(v, pw))
            else:
                continue
            out = g if out is None else out + g
        return out

    def grad_x(self, w, x):
        out = np.zeros_like(x)
        for kind, arg in self.terms:
            if kind == "sigma":
                out = out + arg.df(x)
            elif kind == "renyi":
                out = out + (1.0 - arg) * np.power(x, -arg) * np.sum(
                    np.power(np.maximum(w, 0.0), arg), axis=-1
                )
        return out


# -- functionals of the hybrid density ------------------------------------------


class Functional:
    """Base class: a real functional of a HybridDensity with a derivative."""

    name = "functional"

    def value(self, state: HybridDensity) -> float:
        """The integral of ``pointwise_integrand(grid, P)``, the integrand phi
        with F = sum phi(P_ij) dq dp that a P-local functional defines; one
        with gradients overrides it."""
        return float(state.grid.integrate(self.pointwise_integrand(state.grid, state.P)))

    def derivative(self, state: HybridDensity) -> np.ndarray:
        """delta F / delta P as a Hermitian matrix field."""
        raise NotImplementedError(f"functional '{self.name}' has no derivative")


class WeightedTraceFunctional(Functional):
    """F = integral w(q,p) Tr P, e.g. phase-space moments; the weight is
    broadcast to the grid (a number is a constant weight)."""

    def __init__(self, weight, name="moment"):
        self.weight = np.asarray(weight, dtype=float)
        self.name = name

    def derivative(self, state):
        w = np.broadcast_to(self.weight, state.grid.shape)
        return w[..., None, None] * np.eye(state.n, dtype=complex)

    def pointwise_integrand(self, grid, P):
        return self.weight * trace_field(P)


class LinearProbeFunctional(Functional):
    """F = integral Re Tr(A(q,p) P); dF/dP = A."""

    def __init__(self, A, name="probe"):
        self.A = hermitize(np.asarray(A, dtype=complex))
        self.name = name

    def derivative(self, state):
        return np.array(self.A, copy=True)

    def pointwise_integrand(self, grid, P):
        return tr_prod(P, self.A)


class MassFunctional(WeightedTraceFunctional):
    """F = integral Tr P."""

    def __init__(self):
        super().__init__(1.0, "mass")


class EnergyFunctional(LinearProbeFunctional):
    """F = integral Re Tr(H P), the Ehrenfest energy."""

    def __init__(self, ham: Hamiltonian):
        super().__init__(ham.H, "energy")


class CasimirC1(Functional):
    """C1 = integral Tr P * Phi(P / Tr P); vacuum points contribute zero."""

    def __init__(self, phi: SpectralFn):
        self.phi = phi
        self.name = f"C1[{phi.name}]"

    def value(self, state):  # its own attribute, which benchmarks/spans.py times
        return super().value(state)

    def pointwise_integrand(self, grid, P):
        D = trace_field(P)
        floor = vacuum_floor(D)
        Dsafe = np.where(D > floor, D, 1.0)
        w = eigvalsh_field(hermitize(P)) / Dsafe[..., None]
        return np.where(D > floor, D * self.phi.value_of_eigs(w), 0.0)

    def derivative(self, state):
        # dC1/dP = Phi'(rho) + (Phi(rho) - Tr(Phi'(rho) rho)) 1
        P = state.P
        D = trace_field(P)
        floor = vacuum_floor(D)
        Dsafe = np.where(D > floor, D, floor)
        w, v = np.linalg.eigh(hermitize(P))
        w = w / Dsafe[..., None]
        grad = self.phi.grad_matrix(w, v)
        phi_val = self.phi.value_of_eigs(w)
        correction = phi_val - np.sum(self.phi.df(w) * w, axis=-1)
        n = state.n
        return grad + correction[..., None, None] * np.eye(n, dtype=complex)


class CasimirGeneral(Functional):
    """C = integral D Gamma(W W^dag, Lambda / D) through an Uhlmann factor.

    By default the state is factored with the deterministic gauge of
    ``uhlmann_factor``; that gauge is only piecewise smooth, so for random
    probe states a smooth factorization should be supplied via ``split``
    (Lambda needs differentiable W). The derivative is assembled analytically
    in (D, W) and mapped back with the chain rule, which requires the
    conditional density W W^dag to be invertible (full-rank probe states).
    """

    name = "C_general"

    def __init__(self, gamma: GammaSpec, split=None):
        self.gamma = gamma
        self.split = split

    def _factor(self, state):
        if self.split is None:
            return uhlmann_factor(state)
        back = self.split.compose()
        if np.max(np.abs(back.P - state.P)) > 1e-8 * max(np.max(np.abs(state.P)), 1e-300):
            raise ValueError("provided split does not factor the given state")
        return self.split

    def value(self, state):
        return casimir_general_value(self._factor(state), self.gamma)

    def derivative(self, state):
        grid = state.grid
        split = self._factor(state)
        D, W = split.D, split.W
        floor = vacuum_floor(D)
        Dsafe = np.where(D > floor, D, floor)
        x = split.Lambda / Dsafe
        A = outer(W)
        w, v = np.linalg.eigh(hermitize(A))

        dCdD = self.gamma.value(w, x) - x * self.gamma.grad_x(w, x)
        gA = self.gamma.grad_A(w, v, x)
        gx = self.gamma.grad_x(w, x)

        dCdW = np.zeros_like(W)
        if gA is not None:
            dCdW += 2.0 * Dsafe[..., None, None] * mm(gA, W)
        # exact discrete adjoint of the Lambda dependence
        hbar = grid.hbar
        Wq = grid.partial_q(W)
        Wp = grid.partial_p(W)
        dCdW += (2.0j * hbar) * (
            grid.partial_q(gx[..., None, None] * Wp) - grid.partial_p(gx[..., None, None] * Wq)
        )

        pair = tr_prod(dagger(dCdW), W)
        GW = dCdD[..., None, None] * W - (pair / (2.0 * Dsafe))[..., None, None] * W
        GW += dCdW / (2.0 * Dsafe)[..., None, None]
        G = mm(mm(GW, dagger(W)), np.linalg.inv(A))
        return hermitize(G)


# -- hybrid Poisson bracket -------------------------------------------------------


class BracketOperand(NamedTuple):
    """One argument of the hybrid bracket, derived once: G = df/dP and the
    transport pieces a_q = Re Tr(P d_q G), a_p = Re Tr(P d_p G)."""

    G: np.ndarray
    a_q: np.ndarray
    a_p: np.ndarray


def bracket_operand(f: Functional, state: HybridDensity) -> BracketOperand:
    """The derivative of ``f`` at ``state`` and its two transport pieces, for
    bracketing one functional against several others."""
    grid, P = state.grid, state.P
    G = component_major(f.derivative(state))  # planes, as the stencils read them
    a_q = tr_prod(P, grid.partial_q(G))
    a_p = tr_prod(P, grid.partial_p(G))
    return BracketOperand(G, a_q, a_p)


def hybrid_bracket(f, g, state: HybridDensity, return_scale=False):
    """{{f, g}}(P), antisymmetric by construction; vacuum handled as in C1.

    ``f`` and ``g`` are each a ``Functional`` or its ``bracket_operand`` at
    ``state``; the value is the same either way. With ``return_scale`` also
    returns the integral of the pointwise magnitudes of the raw bracket
    pieces (the two transport products and the commutator term, before any
    cancellation): the natural size of what a Casimir cancels, hence the
    reference scale for |{{f, C}}| tests.
    """
    grid, P = state.grid, state.P
    if isinstance(f, Functional):
        f = bracket_operand(f, state)
    if isinstance(g, Functional):
        g = bracket_operand(g, state)
    TrP = trace_field(P)
    mask = TrP > vacuum_floor(TrP)
    denom = np.where(mask, TrP, 1.0)
    term1 = np.where(mask, (f.a_q * g.a_p - f.a_p * g.a_q) / denom, 0.0)

    # Re Tr(P i[Gg, Gf]) = Im Tr(P [Gf, Gg]); every G is Hermitian
    term2 = tr_prod(P, 1j * hcomm(g.G, f.G)) / grid.hbar
    value = float(grid.integrate(term1 + term2))
    if not return_scale:
        return value
    raw = np.where(mask, (np.abs(f.a_q * g.a_p) + np.abs(f.a_p * g.a_q)) / denom, 0.0)
    scale = float(grid.integrate(raw + np.abs(term2)))
    return value, scale


def bracket_consistency(f: Functional, state: HybridDensity, ham: Hamiltonian):
    """Compare {{f, h}} with dF/dt chained through the Ehrenfest tendency."""
    grid = state.grid
    fo = bracket_operand(f, state)
    lhs = hybrid_bracket(fo, EnergyFunctional(ham), state)
    tend = _dyn.ehrenfest_rhs(grid, state.P, ham)[0][0]
    rhs = float(grid.integrate(tr_prod(fo.G, tend)))
    mag = float(grid.integrate(frobenius_norm(fo.G) * frobenius_norm(tend)))
    scale = max(abs(lhs), abs(rhs), mag, 1e-300)
    return {"bracket": lhs, "chain_rate": rhs, "residual": abs(lhs - rhs) / scale, "scale": scale}


# -- split-state entropies and Casimirs --------------------------------------------


class FlaggedValue(NamedTuple):
    value: float
    lambda_positive: bool


def _support_integral(split, pointwise):
    """(integral of ``pointwise(D, Lambda)`` over the support of D, whether
    Lambda > 0 there). Off the support ``pointwise`` sees D = 1, and the
    floating-point warnings of those discarded points are silenced."""
    D, Lam = split.D, split.Lambda
    mask = split.support()
    ok = bool(np.min(Lam[mask]) > 0.0) if np.any(mask) else True
    Dsafe = np.where(mask, D, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = np.where(mask, pointwise(Dsafe, Lam), 0.0)
    return float(split.grid.integrate(integrand)), ok


def casimir_c2(split: UhlmannSplit, sigma: ScalarFn) -> FlaggedValue:
    """C2 = integral D Sigma(Lambda / D); flags a sign-indefinite Lambda.

    With Sigma = ln this is the pure-state hybrid entropy (minus the KL
    divergence of D from Lambda); that interpretation is invalid when Lambda
    is not positive on the support, hence the flag.
    """
    return FlaggedValue(*_support_integral(split, lambda D, Lam: D * sigma.f(Lam / D)))


def shannon_pure(split: UhlmannSplit) -> FlaggedValue:
    """S = -integral D ln(D / Lambda)."""
    return casimir_c2(split, scalar_fn("log"))


def entropy_meanfield(grid, D, rho) -> float:
    """von Neumann entropy of rho plus Shannon entropy of D."""
    svn = float(vn_entropy_trace(np.asarray(rho)))
    Dpos = np.where(D > EIG_CLAMP, D, 1.0)
    return svn - float(grid.integrate(D * np.log(Dpos)))


def renyi_meanfield(grid, D, rho, alpha) -> float:
    """H_alpha = (ln Tr rho^alpha + ln integral D^alpha) / (1 - alpha)."""
    a = float(alpha)
    if a == 1.0:
        raise ValueError("alpha must differ from 1")
    w = np.maximum(eigvalsh_field(hermitize(np.asarray(rho))), 0.0)
    qterm = np.log(np.sum(w**a))
    cterm = np.log(float(grid.integrate(np.maximum(D, 0.0) ** a)))
    return float((qterm + cterm) / (1.0 - a))


def entropy_uhlmann(split) -> FlaggedValue:
    """S = -Tr integral P ln(P / Lambda), from the pointwise spectrum of P."""
    floor = vacuum_floor(split.D, EIG_CLAMP)

    def pointwise(D, Lam):
        lam = D[..., None] * split.spectrum  # eigenvalues of P
        logs = np.log(np.where(lam > 0, lam, 1.0) / Lam[..., None])
        return np.sum(np.where(lam > floor, -lam * logs, 0.0), axis=-1)

    return FlaggedValue(*_support_integral(split, pointwise))


def renyi_mqc(split, alpha) -> FlaggedValue:
    """H_alpha = (1-alpha)^-1 ln integral Lambda Tr(P / Lambda)^alpha."""
    a = float(alpha)
    if a == 1.0:
        raise ValueError("alpha must differ from 1")

    def pointwise(D, Lam):
        lam = D[..., None] * split.spectrum
        return Lam * np.sum(np.power(np.maximum(lam / Lam[..., None], 0.0), a), axis=-1)

    total, ok = _support_integral(split, pointwise)
    if not ok:
        return FlaggedValue(float("nan"), False)
    return FlaggedValue(float(np.log(total) / (1.0 - a)), ok)


def uhlmann_entropies(state_type):
    """(S(state), H(state, alpha)): the Uhlmann entropy and its Renyi extension
    on a split, the mean-field pair on its grad-W = 0 reduction (D, rho)."""
    if issubclass(state_type, UhlmannSplit):
        return (lambda s: entropy_uhlmann(s).value, lambda s, a: renyi_mqc(s, a).value)
    if issubclass(state_type, MeanFieldState):
        return (lambda s: entropy_meanfield(s.grid, s.D, s.rho),
                lambda s, a: renyi_meanfield(s.grid, s.D, s.rho, a))
    return None, None


def casimir_general_value(split: UhlmannSplit, gamma: GammaSpec) -> float:
    """C = integral D Gamma(W W^dag, Lambda / D) for a (D, W) state."""
    w = split.spectrum
    return _support_integral(split, lambda D, Lam: D * gamma.value(w, Lam / D))[0]


# -- Poincare loop invariant --------------------------------------------------------


def loop_integral(split, points) -> float:
    """Closed line integral of <field, (p + i hbar d_q) field> dq
    + <field, i hbar d_p field> dp over an advected polyline.

    Equals the circulation of (A - A_B) for unit-norm conditional fields:
    the integrand components are (p - A_q, -A_p), with the Berry connection
    interpolated from its grid stencils and p taken from the (unwrapped)
    loop coordinates themselves.
    """
    grid, A_B = split.grid, split.berry.A_B
    A = grid.interpolate(_grid_first(A_B), points[:, 0], points[:, 1])  # read as planes
    Fq = points[:, 1] - A[:, 0]
    Fp = -A[:, 1]
    dq = np.roll(points[:, 0], -1) - points[:, 0]
    dp = np.roll(points[:, 1], -1) - points[:, 1]
    mq = 0.5 * (Fq + np.roll(Fq, -1))
    mp = 0.5 * (Fp + np.roll(Fp, -1))
    return float(np.sum(mq * dq + mp * dp))


# -- Liouville volume transport ------------------------------------------------------


def split_velocity(split: UhlmannSplit, ham: Hamiltonian):
    """Transport velocity X = Re Tr(W^dag X_H W) of a split state, as the
    (2, Nq, Np) planes (X_q, X_p)."""
    return pair_planes(split.W, ham.X_planes, ham.X_live, np.empty((2,) + split.grid.shape))


def lambda_transport_residual(times, splits, ham: Hamiltonian):
    """Residual of d_t Lambda + div(Lambda X) on a sampled trajectory.

    Central differences in time across consecutive samples; returns
    (t_mid, rms, max) arrays over the interior sample times.
    """
    if len(splits) < 3:
        raise ValueError("need at least three samples")
    grid = splits[0].grid
    lams = [s.Lambda for s in splits]
    t_mid, rms, mx = [], [], []
    for k in range(1, len(splits) - 1):
        dt2 = times[k + 1] - times[k - 1]
        dLam = (lams[k + 1] - lams[k - 1]) / dt2
        Xq, Xp = split_velocity(splits[k], ham)
        resid = dLam + grid.divergence(lams[k] * Xq, lams[k] * Xp)
        t_mid.append(times[k])
        rms.append(float(np.sqrt(np.mean(resid**2))))
        mx.append(float(np.max(np.abs(resid))))
    return np.array(t_mid), np.array(rms), np.array(mx)
