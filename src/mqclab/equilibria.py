"""Maximum-entropy equilibrium states and stationarity certification.

Closed-form Gibbs profiles exist in the two analytically solvable families:

* ``pure_dephasing``  H = H_0 1 + H_I A: psi is a constant eigenvector of A
  (so Lambda = 1) and D ~ exp(-mu (H_0 + a_n H_I)) on the chosen branch;
* ``zeta_composed``   H = H(zeta(q,p)): psi is the smooth eigenvector field
  of the branch (Lambda = 1 up to discretization) and D ~ exp(-mu E_n).

The Uhlmann representation admits the full Gibbs operator
P = exp(-mu H) / Tr-integral(exp(-mu H)) in the zeta-composed (or uncoupled)
case. General hybrid Hamiltonians are rejected: no explicit equilibrium
profile is available for them, which is the detailed-balance obstruction this
module quantifies via residuals rather than resolves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as _dyn
from . import invariants as _inv
from .grids import (eigen_compose, frobenius_norm, hermitize, matrix_function, mm, pair_planes,
                    tr_prod, trace_field)
from .hamiltonians import EigenvalueCrossingError, Hamiltonian, UnsupportedHamiltonianError, eigenfields
from .states import (
    ConditionalSplit,
    HybridDensity,
    MeanFieldState,
    UhlmannSplit,
    _fix_eigvec_phase,
    outer,
    uhlmann_factor,
)


class ProblemError(ValueError):
    """A field of an equilibrium request is invalid or admits no equilibrium;
    ``key`` names that field of ``MaxEntProblem``."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


@dataclass
class MaxEntProblem:
    """Equilibrium request: exactly one of E (target energy) or mu given."""

    representation: str  # mean_field | conditional | uhlmann
    ham: Hamiltonian
    E: float = None
    mu: float = None
    branch: int = 0

    def __post_init__(self):
        if (self.E is None) == (self.mu is None):
            raise ProblemError("E", "give exactly one of E or mu")
        if self.representation not in ("mean_field", "conditional", "uhlmann"):
            raise ProblemError("representation",
                               f"unknown representation '{self.representation}'")
        if self.mu == 0:  # the maximum-entropy residuals divide by mu
            raise ProblemError("mu", "must not be zero")
        if not 0 <= self.branch < self.ham.n:
            raise ProblemError("branch",
                               f"branch {self.branch} outside quantum dimension {self.ham.n}")


@dataclass
class EquilibriumResult:
    """A Gibbs state with its partition function Z_C and ln Z_C (NaN where
    no closed form is built); Z_C overflows to inf long before ln Z_C does.
    ``seam_kinked``: a confinement-checked build found the landscape to be a
    truncated non-periodic function, kinked at the domain seam."""

    state: object
    mu: float
    Z_C: float
    branch: int
    energy: float
    residuals: dict = field(default_factory=dict)
    ln_Z_C: float = float("nan")
    seam_kinked: bool = False


def _partition(Z_shifted, mu, shift):
    """(Z_C, ln Z_C) from the integral of exp(-mu (H - shift))."""
    with np.errstate(over="ignore"):
        Z_C = Z_shifted * np.exp(-mu * shift)
    return Z_C, float(np.log(Z_shifted) - mu * shift)


def _seam_ring(shape):
    """The cells within 2 of the domain seam."""
    edge = np.zeros(shape, dtype=bool)
    edge[:2, :] = edge[-2:, :] = True
    edge[:, :2] = edge[:, -2:] = True
    return edge


def _seam_kinked(grid, values, d_q, d_p):
    """True when the field is a truncated non-periodic function: the stencil
    derivative disagrees with the analytic one at the seam far more than in
    the interior."""
    edge = _seam_ring(grid.shape)
    err = np.abs(grid.partial_q(values) - d_q) + np.abs(grid.partial_p(values) - d_p)
    seam = float(np.max(err[edge]))
    interior = float(np.max(err[~edge]))
    scale = float(np.max(np.abs(d_q)) + np.max(np.abs(d_p))) + 1e-300
    return seam > 100.0 * interior + 1e-8 * scale


def _check_confined(grid, D, kinked):
    """For truncated (seam-kinked) landscapes, Gibbs mass must decay toward
    the seam: a seam-ring mass fraction above 1e-6 is rejected, one above
    1e-10 warned of. Periodic landscapes live on the torus natively and need
    no check."""
    if not kinked:
        return
    edge = _seam_ring(grid.shape)
    total = float(grid.integrate(D))
    ring_mass = float(grid.integrate(np.where(edge, D, 0.0))) / max(total, 1e-300)
    if ring_mass > 1e-6:
        raise ProblemError("mu", f"Gibbs weight carries mass fraction {ring_mass:.2e} at the "
                           "domain seam of a non-periodic landscape; the branch is not "
                           "normalizable on this domain")
    if ring_mass > 1e-10:
        warnings.warn(
            f"Gibbs profile carries mass {ring_mass:.2e} within 2 cells of the seam; "
            "truncation error may not be subdominant",
            RuntimeWarning,
        )


def gibbs_conditional(problem: MaxEntProblem, check_confined=True) -> EquilibriumResult:
    """Conditional-representation maximum-entropy state on one branch."""
    ham = problem.ham
    grid = ham.grid
    mu = problem.mu if problem.mu is not None else solve_mu(problem)[0]

    if ham.kind == "pure_dephasing":
        A = ham.extras["A"]
        a_vals, a_vecs = np.linalg.eigh(A)
        a_n = float(a_vals[problem.branch])
        vec = _fix_eigvec_phase(a_vecs)[:, problem.branch]
        psi = np.broadcast_to(vec, grid.shape + vec.shape).copy()
        E_field = ham.extras["h_0"].values + a_n * ham.extras["h_i"].values
    elif ham.kind in ("zeta_composed", "nanowire"):
        try:
            eig = eigenfields(ham)
        except EigenvalueCrossingError as exc:
            raise ProblemError("ham", f"{exc}; no equilibrium returned") from None
        psi = np.ascontiguousarray(eig.state(problem.branch))
        E_field = eig.energy(problem.branch)
    else:
        raise UnsupportedHamiltonianError(
            f"no explicit conditional equilibrium for kind '{ham.kind}': the "
            "maximum-entropy conditions are only solvable for zeta-composed "
            "and pure-dephasing Hamiltonians"
        )

    # <psi|grad H|psi> from the pairing with X_H = (dH_p, -dH_q)
    v = pair_planes(psi[..., None], ham.X_planes, ham.X_live, np.empty((2,) + grid.shape))
    dE_q, dE_p = -v[1], v[0]
    shift = float(np.min(E_field))
    w = np.exp(-mu * (E_field - shift))
    kinked = check_confined and _seam_kinked(grid, E_field, dE_q, dE_p)
    _check_confined(grid, w, kinked)
    Z_shift = float(grid.integrate(w))
    Z_C, ln_Z_C = _partition(Z_shift, mu, shift)
    D = w / Z_shift
    split = ConditionalSplit(grid, D, psi)
    energy = float(grid.integrate(D * E_field))
    res = {"lambda_max_dev": float(np.max(np.abs(split.Lambda - 1.0)))}
    return EquilibriumResult(split, mu, Z_C, problem.branch, energy, res, ln_Z_C, kinked)


def gibbs_uhlmann(problem: MaxEntProblem, check_confined=True) -> EquilibriumResult:
    """Uhlmann-representation Gibbs state P = exp(-mu H) / Tr-integral."""
    ham = problem.ham
    grid = ham.grid
    if ham.kind not in ("zeta_composed", "uncoupled", "nanowire"):
        raise UnsupportedHamiltonianError(
            f"no explicit Uhlmann equilibrium for kind '{ham.kind}'"
        )
    mu = problem.mu if problem.mu is not None else solve_mu(problem)[0]
    shift = float(np.min(np.linalg.eigvalsh(ham.H)))
    M = matrix_function(-mu * (ham.H - shift * np.eye(ham.n)), np.exp)
    Zfield = trace_field(M)
    # the kink is sought in H itself: the weight is too small at the seam to show it
    kinked = check_confined and _seam_kinked(grid, ham.H, ham.dH_q, ham.dH_p)
    _check_confined(grid, Zfield, kinked)
    Ztot = float(grid.integrate(Zfield))
    Z_C, ln_Z_C = _partition(Ztot, mu, shift)
    P = M / Ztot
    split = uhlmann_factor(HybridDensity(grid, P), m=ham.n)
    energy = float(grid.integrate(tr_prod(P, ham.H)))
    res = {"lambda_max_dev": float(np.max(np.abs(split.Lambda - 1.0)))}
    return EquilibriumResult(split, mu, Z_C, problem.branch, energy, res, ln_Z_C, kinked)


def gibbs_meanfield_uncoupled(problem: MaxEntProblem, check_confined=True) -> EquilibriumResult:
    """The factorized Gibbs pair rho ~ exp(-mu H_Q), D ~ exp(-mu H_C).

    Solves the mean-field maximum-entropy conditions exactly in the uncoupled
    case; for coupled Hamiltonians no such pair exists. No partition
    function is built (``Z_C`` and ``ln_Z_C`` are NaN).
    """
    ham = problem.ham
    grid = ham.grid
    if ham.kind != "uncoupled":
        raise UnsupportedHamiltonianError("factorized Gibbs pair requires an uncoupled H")
    mu = problem.mu if problem.mu is not None else solve_mu(problem)[0]
    prof = ham.extras["h_c"]
    h_c = prof.values
    D = np.exp(-mu * (h_c - float(np.min(h_c))))
    kinked = check_confined and _seam_kinked(grid, h_c, prof.d_q, prof.d_p)
    _check_confined(grid, D, kinked)
    H_Q = ham.extras["H_Q"]
    D = D / float(grid.integrate(D))
    w, v = np.linalg.eigh(H_Q)
    rw = np.exp(-mu * (w - w.min()))
    rho = eigen_compose(v, rw / rw.sum())
    state = MeanFieldState(grid, D, rho)
    energy = _dyn.energy_of("mean_field", state, ham)
    return EquilibriumResult(state, mu, float("nan"), problem.branch, energy, seam_kinked=kinked)


def equilibrium_at(problem: MaxEntProblem, mu, check_confined=False):
    """The maximum-entropy state of ``problem``'s representation at ``mu``.

    The confinement check is off by default: mid-bisection profiles may be
    delocalized, so only final states are checked.
    """
    sub = MaxEntProblem(problem.representation, problem.ham, mu=mu, branch=problem.branch)
    build = {"uhlmann": gibbs_uhlmann, "conditional": gibbs_conditional,
             "mean_field": gibbs_meanfield_uncoupled}[problem.representation]
    return build(sub, check_confined=check_confined)


def solve_mu(problem: MaxEntProblem):
    """Invert E(mu) by bisection on the monotone-decreasing energy curve.

    Returns (mu, achieved energy). The target must lie inside the energies
    attainable on this grid and branch for mu in [1e-6, 1e6]; the bisection
    (geometric in mu) stops at a relative energy error of 1e-10 or after 200
    halvings.
    """
    if problem.E is None:
        raise ProblemError("E", "solve_mu needs a target energy E")
    target = float(problem.E)

    def energy_at(mu):
        return equilibrium_at(problem, mu).energy

    lo, hi = 1e-6, 1e6
    e_lo, e_hi = energy_at(lo), energy_at(hi)  # e_lo >= e_hi
    if not (min(e_lo, e_hi) <= target <= max(e_lo, e_hi)):
        raise ProblemError("E", f"target energy {target:.6g} outside attainable range "
                           f"[{min(e_lo, e_hi):.6g}, {max(e_lo, e_hi):.6g}] for this branch/grid")
    mu = np.sqrt(lo * hi)
    e_mid = energy_at(mu)
    for _ in range(200):
        if abs(e_mid - target) <= 1e-10 * max(abs(target), 1e-30):
            break
        if e_mid > target:  # energy too high -> colder -> raise mu
            lo = mu
        else:
            hi = mu
        mu = np.sqrt(lo * hi)
        e_mid = energy_at(mu)
    return float(mu), float(e_mid)


# -- stationarity ------------------------------------------------------------------


def marina_residual(split: ConditionalSplit, ham: Hamiltonian, mu):
    """Residual of the psi-stationarity condition with a pointwise multiplier.

    r = Lambda (H + lambda_1/mu) psi + i hbar {<psi, H psi>, psi}, with the
    real field lambda_1 fitted pointwise by least squares (it enforces the
    pointwise norm constraint, so only the component of r orthogonal to psi
    carries information). Returns the D-weighted relative residual norm and
    its absolute value.
    """
    grid = split.grid
    psi, D = split.psi, split.D
    Lam = split.Lambda
    Hpsi = mm(ham.H, psi[..., None])[..., 0]
    Heff = np.sum(np.conj(psi) * Hpsi, axis=-1).real
    br = (
        grid.partial_q(Heff)[..., None] * grid.partial_p(psi)
        - grid.partial_p(Heff)[..., None] * grid.partial_q(psi)
    )
    r0 = Lam[..., None] * Hpsi + 1j * grid.hbar * br
    coeff = Lam / mu
    lam1 = -mu * np.sum(np.conj(psi) * r0, axis=-1).real / np.where(
        np.abs(Lam) > 1e-300, Lam, 1.0
    )
    r = r0 + (coeff * lam1)[..., None] * psi
    num = float(np.sqrt(grid.integrate(D * np.sum(np.abs(r) ** 2, axis=-1))))
    den = float(np.sqrt(grid.integrate(D * np.sum(np.abs(Lam[..., None] * Hpsi) ** 2, axis=-1))))
    return {"marina": num / max(den, 1e-300), "marina_abs": num}


def stationarity_residual(result: EquilibriumResult, ham: Hamiltonian, T_check=2 * np.pi):
    """Certify an equilibrium against the dynamics it should be fixed by.

    Runs the model registered for the state's type for ``T_check`` (at an
    advective CFL number of at most 0.2) and reports the relative L1 change
    of D, the D-weighted L1 change of the pointwise conditional projector,
    the entropy change, and (conditional representation) the
    stationarity-equation residual.
    """
    state = result.state
    grid = state.grid
    model = next(k for k, m in _dyn.MODELS.items() if type(state) is m.state_type)
    dt = _dyn.cfl_dt(model, state, ham, 0.2)
    steps = max(int(np.ceil(T_check / dt)), 4)
    why = _dyn.excess_work(steps, "steps", grid, state.n)
    if why:
        raise ProblemError("T_check", why)
    dt = T_check / steps
    cfg = _dyn.StepperConfig(dt=dt, steps=steps, sample_every=steps)
    run = _dyn.rk4_run(model, state, ham, cfg)
    if run.aborted:
        raise _dyn.NumericalAbort(f"stationarity run aborted: {run.abort_reason}")
    final = run.final_state

    metrics = {"T_check": T_check, "dt": dt, "steps": steps}
    D0 = state.D
    metrics["d_change_l1"] = float(grid.integrate(np.abs(final.D - D0))) / float(
        grid.integrate(np.abs(D0))
    )
    if isinstance(state, UhlmannSplit):
        diff = frobenius_norm(outer(final.W) - outer(state.W))
        metrics["projector_change_l1"] = float(grid.integrate(D0 * diff))
    if isinstance(state, ConditionalSplit):
        metrics["entropy_change"] = (
            _inv.shannon_pure(final).value - _inv.shannon_pure(state).value
        )
        metrics.update(marina_residual(state, ham, result.mu))
    elif isinstance(state, UhlmannSplit):
        metrics["entropy_change"] = (
            _inv.entropy_uhlmann(final).value - _inv.entropy_uhlmann(state).value
        )
    return metrics


def meanfield_maxent_residual(state: MeanFieldState, ham: Hamiltonian, mu):
    """Residuals of the two mean-field maximum-entropy conditions.

    quantum:   (1 + lambda_1) 1 + ln rho + mu integral(D H) = 0
    classical: 1 + lambda_2 + ln D + mu Tr(rho H) = 0

    with the scalar multipliers fitted by least squares. Relative norms are
    returned; both vanish for the uncoupled Gibbs pair.
    """
    grid = state.grid
    D, rho = state.D, state.rho
    n = state.n

    lnrho = matrix_function(rho, np.log, clamp=1e-300)
    Hbar = hermitize(grid.integrate(D[..., None, None] * ham.H))
    Mq = lnrho + mu * Hbar
    Mq_traceless = Mq - (np.trace(Mq) / n) * np.eye(n)
    r_quantum = float(np.linalg.norm(Mq_traceless)) / max(float(np.linalg.norm(Mq)), 1e-300)

    g = np.log(np.maximum(D, 1e-300)) + mu * tr_prod(rho, ham.H)
    gbar = float(grid.integrate(g)) / grid.area
    resid = g - gbar
    r_classical = float(np.sqrt(grid.integrate(resid**2) / grid.area)) / max(
        float(np.sqrt(grid.integrate(g**2) / grid.area)), 1e-300
    )
    return r_quantum, r_classical


def project_to_constraints(grid, D_raw, E_field, target_E):
    """Project a perturbed density back onto mass 1 and the target energy.

    Reweights by exp(-delta E_field) with delta in [-50, 50] found by
    bisection (to a relative energy error of 1e-12, or 200 halvings); keeps
    positivity. Used by the local-maximality probe around Gibbs states.
    """
    D = np.maximum(D_raw, 0.0)
    D = D / float(grid.integrate(D))

    def energy(delta):
        w = D * np.exp(-delta * (E_field - float(np.min(E_field))))
        w = w / float(grid.integrate(w))
        return float(grid.integrate(w * E_field)), w

    lo, hi = -50.0, 50.0
    e_lo, _ = energy(lo)
    e_hi, _ = energy(hi)
    if not (e_hi <= target_E <= e_lo):
        raise ValueError("target energy not reachable by reweighting this perturbation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e_mid, w = energy(mid)
        if abs(e_mid - target_E) <= 1e-12 * max(abs(target_E), 1e-30):
            return w
        if e_mid > target_E:
            lo = mid
        else:
            hi = mid
    return w
