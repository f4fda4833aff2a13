"""Numerical oracles the tests check mqclab against: finite-difference
derivatives of a functional in the Hermitian basis, a smooth random PSD
density, the stencil error of a Hamiltonian's analytic gradient, the
reconstruction error of its eigenfields, the canonical Poisson bracket and
the mean-field and Ehrenfest right-hand sides as written. No command of the
package reaches them."""

import numpy as np

from mqclab.grids import eigen_compose, hermitize, random_band_limited, trace_field
from mqclab.states import EPS_D_REL, HybridDensity, outer, vacuum_floor


def hermitian_basis(n):
    """Real basis of Her(n): diagonal units, symmetric and antisymmetric pairs."""
    basis = []
    for a in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[a, a] = 1.0
        basis.append(("diag", a, a, E))
    for a in range(n):
        for b in range(a + 1, n):
            S = np.zeros((n, n), dtype=complex)
            S[a, b] = S[b, a] = 1.0
            basis.append(("sym", a, b, S))
            K = np.zeros((n, n), dtype=complex)
            K[a, b] = 1.0j
            K[b, a] = -1.0j
            basis.append(("asym", a, b, K))
    return basis


def _add_basis_derivative(G, kind, a, b, d):
    """Add d * (dual of the Hermitian basis element (kind, a, b)) to the
    matrices G[..., :, :], turning basis-coefficient derivatives into dF/dP."""
    if kind == "diag":
        G[..., a, a] += d
    elif kind == "sym":
        G[..., a, b] += 0.5 * d
        G[..., b, a] += 0.5 * d
    else:
        G[..., a, b] += 0.5j * d
        G[..., b, a] += -0.5j * d


def numeric_local_derivative(func, state, step_rel=1e-6):
    """Numeric dF/dP for P-local functionals, by central differences in the
    coefficients of the Hermitian basis, vectorized over the grid."""
    grid, P = state.grid, state.P
    if not hasattr(func, "pointwise_integrand"):
        raise ValueError(
            f"functional '{func.name}' does not expose a pointwise integrand; "
            "use its analytic derivative or the single-point probe"
        )
    n = state.n
    scale = max(float(np.max(np.abs(P))), 1e-30)
    h = step_rel * scale
    G = np.zeros(grid.shape + (n, n), dtype=complex)
    for kind, a, b, E in hermitian_basis(n):
        fp = func.pointwise_integrand(grid, P + h * E)
        fm = func.pointwise_integrand(grid, P - h * E)
        _add_basis_derivative(G, kind, a, b, (fp - fm) / (2.0 * h))
    return G


def derivative_probe(func, state, i, j, step_rel=1e-6, richardson=True):
    """Single-point dF/dP probe by perturbing the full functional at (i, j).

    Central differences in each Hermitian basis coefficient, scaled by
    1/(dq dp); with ``richardson`` the step is halved and the results
    compared, returning (G, discrepancy).
    """
    grid = state.grid
    n = state.n
    scale = max(float(np.max(np.abs(state.P))), 1e-30)

    def probe(h):
        G = np.zeros((n, n), dtype=complex)
        for kind, a, b, E in hermitian_basis(n):
            Pp = np.array(state.P, copy=True)
            Pm = np.array(state.P, copy=True)
            Pp[i, j] += h * E
            Pm[i, j] -= h * E
            d = (func.value(HybridDensity(grid, Pp)) - func.value(HybridDensity(grid, Pm)))
            d /= 2.0 * h * grid.dq * grid.dp
            _add_basis_derivative(G, kind, a, b, d)
        return G

    h = step_rel * scale
    G = probe(h)
    if not richardson:
        return G, None
    G2 = probe(0.5 * h)
    return G2, float(np.max(np.abs(G - G2)))


def random_psd_density(grid, n, rng, kmax=2, floor=0.3):
    """Smooth random PSD matrix field with trace bounded away from zero.

    Suitable for the trace-local functionals (C1, moments, probes); for the
    gradient-dependent Casimirs prefer ``probes.random_smooth_split``.
    """
    G = random_band_limited(grid, rng, kmax=kmax, trailing=(n, n), complex_valued=True)
    P = hermitize(outer(G))
    mean_tr = float(np.mean(trace_field(P)))
    P += floor * mean_tr * np.eye(n)
    P /= float(grid.integrate(trace_field(P)))
    return HybridDensity(grid, P)


def gradient_fd_error(ham):
    """Max deviation of the Hamiltonian's stored gradient from the 4th-order
    stencil. Meaningful for seam-free (periodic) kinds only."""
    eq = np.max(np.abs(ham.grid.partial_q(ham.H) - ham.dH_q))
    ep = np.max(np.abs(ham.grid.partial_p(ham.H) - ham.dH_p))
    return float(max(eq, ep))


def reconstruction_error(ham, eig):
    """Max pointwise || sum_n E_n v_n v_n^dag - H ||."""
    R = eigen_compose(eig.V, eig.E)
    return float(np.max(np.abs(R - ham.H)))


def poisson_bracket(grid, f, g):
    """Canonical bracket {f, g} = dq(f) dp(g) - dp(f) dq(g), pointwise."""
    return grid.partial_q(f) * grid.partial_p(g) - grid.partial_p(f) * grid.partial_q(g)


def _dagger(M):
    return np.conj(np.swapaxes(M, -1, -2))


def _re_trace(A, B):
    """The field Re Tr(A B), by ``@`` and ``np.trace``."""
    return np.trace(A @ B, axis1=-2, axis2=-1).real


def mean_field_rhs_formula(grid, D, rho, ham):
    """The mean-field tendencies as written, for a Hermitian rho:
    dD = -(Tr(rho dH_p) d_q D - Tr(rho dH_q) d_p D) and
    drho = -(i/hbar)(Hbar rho - rho Hbar), Hbar = integral(D H). Every plane
    of X_H is read, zero or not."""
    v_q, v_p = _re_trace(rho, ham.dH_p), -_re_trace(rho, ham.dH_q)
    dD = -(v_q * grid.partial_q(D) + v_p * grid.partial_p(D))
    Hbar = grid.integrate(D[..., None, None] * ham.H)
    drho = (-1j / grid.hbar) * (Hbar @ rho - rho @ Hbar)
    return dD, drho


def ehrenfest_rhs_formula(grid, P, ham, eps_tr_rel=EPS_D_REL):
    """The Ehrenfest density tendency as written, for a Hermitian P:
    -div(P <X_H>) - (i/hbar)(H P - P H), symmetrized, with <X_H>_k =
    Tr(P X_k) / D and D = Tr P plus the vacuum floor. Every plane of X_H is
    read, zero or not."""
    TrP = np.trace(P, axis1=-2, axis2=-1).real
    D = TrP + vacuum_floor(TrP, eps_tr_rel)
    v_q, v_p = _re_trace(P, ham.X_q) / D, _re_trace(P, ham.X_p) / D
    dP = -(grid.partial_q(P * v_q[..., None, None]) + grid.partial_p(P * v_p[..., None, None]))
    dP -= (1j / grid.hbar) * (ham.H @ P - P @ ham.H)
    return 0.5 * (dP + _dagger(dP))
