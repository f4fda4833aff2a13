"""Entropy/Casimir functionals, the hybrid Poisson bracket, the Poincare loop
invariant, and the Liouville-volume transport residual.

Functional families (P = hybrid density, D = Tr P, rho = P / Tr P):

* ``C1(Phi)``   integral of D * Phi(rho), Phi a spectral trace function;
* ``C(Gamma)``  integral of D * Gamma(W W^dag, Lambda / D), the hybrid family.
                C2(Sigma) = integral D Sigma(Lambda / D), the Renyi-type
                invariants Gamma(A, x) = x^(1-alpha) Tr A^alpha and the pure
                and Uhlmann entropies and their Renyi extensions are its
                members, on a split or on the mean field (D, rho): the member
                state with Lambda = 1 and the spectrum of rho at every point.

``_family`` is the one evaluation of C(Gamma): the integral of
``GammaSpec.integrand`` = D Gamma(w, Lambda / D) over the support of D
(``states.on_support``), read from a state's Liouville volume and conditional
spectrum (``split.Lambda``, ``split.spectrum``: computed once, as a split is
not changed in place once built). Every term counts an eigenvalue w <=
``EIG_CLAMP`` of the spectrum as zero (``_kept``).

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
                    frobenius_norm, hcomm, hermitize, mm, pair_planes, tr_prod, trace_field)
from .hamiltonians import Hamiltonian
from .states import (
    HybridDensity,
    MeanFieldState,
    UhlmannSplit,
    floored,
    on_support,
    outer,
    uhlmann_factor,
)
from . import dynamics as _dyn


# -- scalar and spectral function handles ---------------------------------------


def _kept(w, f):
    """f(w_i) per eigenvalue under the one eigenvalue rule: w_i <= ``EIG_CLAMP``
    counts as zero, giving 0 (f sees 1 there)."""
    kept = w > EIG_CLAMP
    return np.where(kept, f(np.where(kept, w, 1.0)), 0.0)


def _ratio_powers(w, x, p):
    """(x / w_i)^p per eigenvalue, under ``_kept``."""
    return _kept(w, lambda wk: np.power(np.expand_dims(x, -1) / wk, p))


@dataclass
class SpectralFn:
    """Phi: Her(n) -> R of trace type, Phi(A) = sum_i f(eig_i(A))."""

    name: str
    f: Callable
    df: Callable

    def value_of_eigs(self, w):
        return np.sum(_kept(w, self.f), axis=-1)

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
        return SpectralFn(name, lambda w: -w * np.log(w), lambda w: -_safe_log(w) - 1.0)
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
    """Gamma(A, x) as a sum of built-in terms of the spectrum w of A and of x:
    ``("phi", SpectralFn)`` for Phi(A) = sum_i f(w_i) (the C1 family),
    ``("sigma", ScalarFn)`` for Sigma(x) (the C2 family), or ``("renyi",
    alpha)`` for x^(1-alpha) Tr A^alpha = sum_i w_i (x / w_i)^(1-alpha)."""

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

    def integrand(self, D, w, Lam):
        """D Gamma(w, Lam / D), the pointwise integrand of C(Gamma)."""
        x = Lam / D
        out = 0.0
        for kind, arg in self.terms:
            if kind == "phi":
                out = out + arg.value_of_eigs(w)
            elif kind == "sigma":
                out = out + arg.f(x)
            else:
                out = out + np.sum(w * _ratio_powers(w, x, 1.0 - arg), axis=-1)
        return D * out

    def value(self, w, x):
        """Gamma(w, x): the integrand at D = 1, Lambda = x."""
        return self.integrand(1.0, w, x)

    def grad_A(self, w, v, x):
        out = None
        for kind, arg in self.terms:
            if kind == "phi":
                g = arg.grad_matrix(w, v)
            elif kind == "renyi":
                g = hermitize(eigen_compose(v, arg * _ratio_powers(w, x, 1.0 - arg)))
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
                out = out + (1.0 - arg) * np.sum(_ratio_powers(w, x, -arg), axis=-1)
        return out


# -- functionals of the hybrid density ------------------------------------------


class LinearProbeFunctional:
    """F = integral Re Tr(A(q,p) P); dF/dP = A, broadcast to the grid (A is a
    constant matrix or a matrix field). The mass is A = 1 and a phase-space
    moment A = w(q,p) 1."""

    def __init__(self, A, name="probe"):
        self.A = hermitize(np.asarray(A, dtype=complex))
        self.name = name

    def derivative(self, state):
        return np.array(np.broadcast_to(self.A, state.grid.shape + self.A.shape[-2:]))


class EnergyFunctional(LinearProbeFunctional):
    """F = integral Re Tr(H P), the Ehrenfest energy (evaluated by
    ``dynamics.energy_of``)."""

    def __init__(self, ham: Hamiltonian):
        super().__init__(ham.H, "energy")


class CasimirC1:
    """C1 = integral Tr P * Phi(P / Tr P); vacuum points contribute zero."""

    def __init__(self, phi: SpectralFn):
        self.phi = phi
        self.name = f"C1[{phi.name}]"

    def value(self, state):  # its own attribute, which benchmarks/spans.py times
        return float(state.grid.integrate(self.pointwise_integrand(state.grid, state.P)))

    def pointwise_integrand(self, grid, P):
        eigs = eigvalsh_field(hermitize(P))
        return on_support(trace_field(P), lambda D: D * self.phi.value_of_eigs(eigs / D[..., None]))

    def derivative(self, state):
        # dC1/dP = Phi'(rho) + (Phi(rho) - Tr(Phi'(rho) rho)) 1
        P = state.P
        w, v = np.linalg.eigh(hermitize(P))
        w = w / floored(trace_field(P))[..., None]
        grad = self.phi.grad_matrix(w, v)
        phi_val = self.phi.value_of_eigs(w)
        correction = phi_val - np.sum(self.phi.df(w) * w, axis=-1)
        return grad + correction[..., None, None] * np.eye(state.n, dtype=complex)


class CasimirGeneral:
    """C = integral D Gamma(W W^dag, Lambda / D) through an Uhlmann factor: by
    default the piecewise-smooth gauge of ``uhlmann_factor``, or a smooth
    ``split`` (Lambda needs differentiable W). The derivative is assembled in
    (D, W) and mapped back with the chain rule, which requires W W^dag to be
    invertible (full-rank probe states). A log term of Gamma needs
    Lambda / D > 0 at every point: the derivative raises ``NumericalAbort``
    naming the Casimir and the first grid point where it is not."""

    def __init__(self, gamma: GammaSpec, split=None, name="C_general"):
        self.gamma = gamma
        self.split = split
        self.name = name

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
        W, Dsafe = split.W, floored(split.D)
        x = split.Lambda / Dsafe
        if not np.all(x > 0.0) and any(kind == "sigma" and fn.name == "log"
                                       for kind, fn in self.gamma.terms):
            bad = tuple(int(i) for i in np.argwhere(~(x > 0.0))[0])
            raise _dyn.NumericalAbort(f"{self.name}: Lambda / D = {x[bad]:.3g} at grid point "
                                      f"{bad}, where its log is undefined")
        A = outer(W)
        w, v = np.linalg.eigh(hermitize(A))

        gx = self.gamma.grad_x(w, x)
        dCdD = self.gamma.value(w, x) - x * gx
        gA = self.gamma.grad_A(w, v, x)

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
        G = mm(mm(GW, dagger(W)), component_major(np.linalg.inv(A)))
        return hermitize(G)


# -- hybrid Poisson bracket -------------------------------------------------------


class BracketOperand(NamedTuple):
    """One argument of the hybrid bracket, derived once: G = df/dP and the
    transport pieces a_q = Re Tr(P d_q G), a_p = Re Tr(P d_p G)."""

    G: np.ndarray
    a_q: np.ndarray
    a_p: np.ndarray


def bracket_operand(f, state: HybridDensity) -> BracketOperand:
    """The derivative of the functional ``f`` at ``state`` (the one thing the
    bracket reads of it, ``f.derivative(state)``: dF/dP as a Hermitian
    matrix field) and its two transport pieces, for bracketing one
    functional against several others."""
    grid, P = state.grid, state.P
    G = component_major(f.derivative(state))  # planes, as the stencils read them
    a_q = tr_prod(P, grid.partial_q(G))
    a_p = tr_prod(P, grid.partial_p(G))
    return BracketOperand(G, a_q, a_p)


def hybrid_bracket(f, g, state: HybridDensity, return_scale=False):
    """{{f, g}}(P), antisymmetric by construction; vacuum handled as in C1.

    ``f`` and ``g`` are each a functional or its ``bracket_operand`` at
    ``state``; the value is the same either way. With ``return_scale`` also
    returns the integral of the pointwise magnitudes of the raw bracket
    pieces (the two transport products and the commutator term, before any
    cancellation): the natural size of what a Casimir cancels, hence the
    reference scale for |{{f, C}}| tests.
    """
    grid, P = state.grid, state.P
    if not isinstance(f, BracketOperand):
        f = bracket_operand(f, state)
    if not isinstance(g, BracketOperand):
        g = bracket_operand(g, state)
    TrP = trace_field(P)
    term1 = on_support(TrP, lambda D: (f.a_q * g.a_p - f.a_p * g.a_q) / D)

    # Re Tr(P i[Gg, Gf]) = Im Tr(P [Gf, Gg]); every G is Hermitian
    term2 = tr_prod(P, 1j * hcomm(g.G, f.G)) / grid.hbar
    value = float(grid.integrate(term1 + term2))
    if not return_scale:
        return value
    raw = on_support(TrP, lambda D: (np.abs(f.a_q * g.a_p) + np.abs(f.a_p * g.a_q)) / D)
    scale = float(grid.integrate(raw + np.abs(term2)))
    return value, scale


def bracket_consistency(f, state: HybridDensity, ham: Hamiltonian):
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


def _family(split, integrand) -> FlaggedValue:
    """C(Gamma) = integral D Gamma(w, Lambda / D) over the support of D, from
    ``integrand(D, w, Lambda)`` (a ``GammaSpec.integrand``), with the flag
    Lambda > 0 there: the one evaluation of every entropy and Casimir of a
    split or mean-field state."""
    w, Lam, mask = split.spectrum, split.Lambda, split.support()
    ok = bool(np.min(Lam[mask]) > 0.0) if np.any(mask) else True
    pointwise = on_support(split.D, lambda D: integrand(D, w, Lam))
    return FlaggedValue(float(split.grid.integrate(pointwise)), ok)


def _peak(split) -> float:
    """The largest eigenvalue of P / Lambda = D w / Lambda on the support."""
    w = np.max(split.spectrum, axis=-1)
    return float(np.max(on_support(split.D, lambda D: D * w / split.Lambda)))


def casimir_general_value(split, gamma: GammaSpec) -> float:
    """C = integral D Gamma(W W^dag, Lambda / D) for a (D, W) state."""
    return _family(split, gamma.integrand).value


def casimir_c2(split: UhlmannSplit, sigma: ScalarFn) -> FlaggedValue:
    """C2 = integral D Sigma(Lambda / D). With Sigma = ln it is the pure-state
    hybrid entropy (minus the KL divergence of D from Lambda), which is invalid
    where Lambda is not positive on the support, hence the flag."""
    return _family(split, GammaSpec.from_sigma(sigma).integrand)


def shannon_pure(split: UhlmannSplit) -> FlaggedValue:
    """S = integral D ln(Lambda / D)."""
    return casimir_c2(split, scalar_fn("log"))


def entropy_meanfield(grid, D, rho) -> float:
    """S_vN(rho) - integral D ln D: the Uhlmann entropy of the product D rho."""
    return entropy_uhlmann(MeanFieldState(grid, D, rho)).value


def renyi_meanfield(grid, D, rho, alpha) -> float:
    """H_alpha = (ln Tr rho^alpha + ln integral D^alpha) / (1 - alpha) of D rho."""
    return renyi_mqc(MeanFieldState(grid, D, rho), alpha).value


def entropy_uhlmann(split) -> FlaggedValue:
    """S = -Tr integral P ln(P / Lambda): C(Gamma) with Gamma(A, x) = -Tr A ln A + ln x."""
    return _family(split, GammaSpec.entropy().integrand)


def renyi_mqc(split, alpha) -> FlaggedValue:
    """H_alpha = ln C(renyi(alpha)) / (1 - alpha), C = integral Lambda Tr(P / Lambda)^alpha,
    evaluated at D / m with alpha ln m added back, m the largest eigenvalue of
    P / Lambda on the support: each term is then at most Lambda, so no alpha
    drives the sum to 0 or infinity."""
    a = float(alpha)
    if a == 1.0:
        raise ValueError("alpha must differ from 1")
    m, renyi = _peak(split), GammaSpec.renyi(a).integrand
    total, ok = _family(split, lambda D, w, Lam: renyi(D / m, w, Lam))
    return FlaggedValue(float((np.log(total) + a * np.log(m)) / (1.0 - a)) if ok else np.nan, ok)


def uhlmann_entropies(state_type):
    """(S(state), H(state, alpha)) of a split or mean-field state type, else (None, None)."""
    if issubclass(state_type, (UhlmannSplit, MeanFieldState)):
        return (lambda s: entropy_uhlmann(s).value, lambda s, a: renyi_mqc(s, a).value)
    return None, None


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
        resid = dLam + (grid.partial_q(lams[k] * Xq) + grid.partial_p(lams[k] * Xp))
        t_mid.append(times[k])
        rms.append(float(np.sqrt(np.mean(resid**2))))
        mx.append(float(np.max(np.abs(resid))))
    return np.array(t_mid), np.array(rms), np.array(mx)
