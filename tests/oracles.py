"""Numerical oracles the tests check mqclab against: finite-difference
derivatives of a functional in the Hermitian basis, a smooth random PSD
density, the stencil error of a Hamiltonian's analytic gradient, the
reconstruction error of its eigenfields, the canonical Poisson bracket, the
mean-field, Ehrenfest and beyond-Ehrenfest right-hand sides as written and
the beyond-Ehrenfest energy. No command of the package reaches them."""

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


def _floored_trace(P, eps_tr_rel):
    """D = Tr P plus the vacuum floor."""
    TrP = np.trace(P, axis1=-2, axis2=-1).real
    return TrP + vacuum_floor(TrP, eps_tr_rel)


def _commutator(A, B):
    return A @ B - B @ A


def ehrenfest_rhs_formula(grid, P, ham, eps_tr_rel=EPS_D_REL):
    """The Ehrenfest density tendency as written, for a Hermitian P:
    -div(P <X_H>) - (i/hbar)(H P - P H), with <X_H>_k = Tr(P X_k) / D and
    D = Tr P plus the vacuum floor. Every plane of X_H is read, zero or not."""
    D = _floored_trace(P, eps_tr_rel)
    v_q, v_p = _re_trace(P, ham.X_q) / D, _re_trace(P, ham.X_p) / D
    dP = -(grid.partial_q(P * v_q[..., None, None]) + grid.partial_p(P * v_p[..., None, None]))
    return dP - (1j / grid.hbar) * _commutator(ham.H, P)


def beyond_ehrenfest_rhs_formula(grid, P, ham, eps_tr_rel=EPS_D_REL):
    """The beyond-Ehrenfest tendency as written, for a Hermitian P:
    -div(P X) - (i/hbar)[scriptH, P], transported along both axes, with

        X_k     = (Tr(P X_k) + sum_j Tr(X_j d_j Sigma_k - Sigma_j d_j X_k)) / D,
        Sigma_k = (i hbar / 2D) [P, X_P,k],  X_P = (d_p P, -d_q P),
        scriptH = H + (i hbar / D) sum_k [d_k P - P d_k ln sqrt(D), X_k],

    X_k the components of X_H and D = Tr P plus the vacuum floor.
    d_k ln sqrt(D) is read as Tr d_k P / 2D, as ``dynamics`` discretises it:
    the stencil of ln D is also fourth order, but differs from it at
    truncation level (by up to 9 % on rough fields). Every plane of X_H is
    read, zero or not."""
    D = _floored_trace(P, eps_tr_rel)
    d, X = (grid.partial_q, grid.partial_p), (ham.X_q, ham.X_p)
    dP = [d[k](P) for k in range(2)]
    scale = (0.5j * grid.hbar / D)[..., None, None]
    Sigma = [scale * _commutator(P, XPk) for XPk in (dP[1], -dP[0])]
    velocity = [(_re_trace(P, X[k]) + sum(_re_trace(X[j], d[j](Sigma[k]))
                                          - _re_trace(Sigma[j], d[j](X[k])) for j in range(2))) / D
                for k in range(2)]
    dlns = [(np.trace(dP[k], axis1=-2, axis2=-1).real / (2.0 * D))[..., None, None]
            for k in range(2)]
    scrH = ham.H + (1j * grid.hbar / D)[..., None, None] * sum(
        _commutator(dP[k] - P * dlns[k], X[k]) for k in range(2))
    dP = -sum(d[k](P * velocity[k][..., None, None]) for k in range(2))
    return dP - (1j / grid.hbar) * _commutator(scrH, P)


def beyond_energy_formula(grid, P, ham, eps_tr_rel=EPS_D_REL):
    """The beyond-Ehrenfest energy as written, for a Hermitian P:
    integral of Tr(P H) + sum_k Tr((i hbar / 2D) [P, d_k P] X_k), the
    gradient-indexed Sigma-hat paired straight against X_H."""
    D = _floored_trace(P, eps_tr_rel)
    scale = (0.5j * grid.hbar / D)[..., None, None]
    density = _re_trace(P, ham.H) + sum(
        _re_trace(scale * _commutator(P, dk(P)), Xk)
        for dk, Xk in ((grid.partial_q, ham.X_q), (grid.partial_p, ham.X_p)))
    return float(grid.integrate(density))
