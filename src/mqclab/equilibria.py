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

Every weight is ``_boltzmann``'s exp(-mu (E - E*)), referred to the minimum
energy E* for mu > 0 and to the maximum for mu < 0 (a negative mu weights the
highest energies), so no weight exceeds 1. The builders read mu from the
problem; ``solve_mu`` turns a target energy into mu, and it and
``project_to_constraints`` share one bisection, ``_bisect``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as _dyn
from . import invariants as _inv
from .grids import (eigen_compose, eigvalsh_field, frobenius_norm, hermitize, matrix_function,
                    mm, pair_planes, tr_prod, trace_field)
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
    """Equilibrium request: exactly one of E (target energy) or mu given; the
    builders read mu, ``solve_mu`` reads E."""

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


def _boltzmann(E, mu):
    """(exp(-mu (E - E*)), E*), with E* the minimum of E for mu > 0 and the
    maximum for mu < 0: no weight exceeds 1. Every Gibbs weight is this one."""
    if mu is None:
        raise ProblemError("mu", "a Gibbs state needs mu; solve_mu turns a target E into one")
    shift = float(np.min(E) if mu > 0 else np.max(E))
    return np.exp(-mu * (E - shift)), shift


def _gibbs(problem, check_confined, landscape, weight, shift, finish):
    """The tail of every builder: the seam-kink test of ``landscape`` (values,
    d_q, d_p), the confinement check and the integral Z of ``weight``, the
    Boltzmann density referred to ``shift``; ``finish(Z)`` returns the state
    and its energy. Only a split carries Z_C and its largest |Lambda - 1|."""
    grid, mu = problem.ham.grid, problem.mu
    kinked = check_confined and _seam_kinked(grid, *landscape)
    _check_confined(grid, weight, kinked)
    Z = float(grid.integrate(weight))
    state, energy = finish(Z)
    if isinstance(state, MeanFieldState):
        return EquilibriumResult(state, mu, float("nan"), problem.branch, energy,
                                 seam_kinked=kinked)
    with np.errstate(over="ignore"):
        Z_C = Z * np.exp(-mu * shift)
    res = {"lambda_max_dev": float(np.max(np.abs(state.Lambda - 1.0)))}
    return EquilibriumResult(state, mu, Z_C, problem.branch, energy, res,
                             float(np.log(Z) - mu * shift), kinked)


def gibbs_conditional(problem: MaxEntProblem, check_confined=True) -> EquilibriumResult:
    """Conditional-representation maximum-entropy state on one branch."""
    ham = problem.ham
    grid = ham.grid
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
    w, shift = _boltzmann(E_field, problem.mu)

    def finish(Z):
        D = w / Z
        return ConditionalSplit(grid, D, psi), float(grid.integrate(D * E_field))

    return _gibbs(problem, check_confined, (E_field, -v[1], v[0]), w, shift, finish)


def gibbs_uhlmann(problem: MaxEntProblem, check_confined=True) -> EquilibriumResult:
    """Uhlmann-representation Gibbs state P = exp(-mu H) / Tr-integral."""
    ham = problem.ham
    if ham.kind not in ("zeta_composed", "uncoupled", "nanowire"):
        raise UnsupportedHamiltonianError(f"no explicit Uhlmann equilibrium for kind '{ham.kind}'")
    _, shift = _boltzmann(eigvalsh_field(ham.H), problem.mu)
    M = matrix_function(-problem.mu * (ham.H - shift * np.eye(ham.n)), np.exp)

    def finish(Z):
        P = M / Z
        return (uhlmann_factor(HybridDensity(ham.grid, P), m=ham.n),
                float(ham.grid.integrate(tr_prod(P, ham.H))))

    # the kink is sought in H itself: the weight is too small at the seam to show it
    return _gibbs(problem, check_confined, (ham.H, ham.dH_q, ham.dH_p), trace_field(M), shift,
                  finish)


def gibbs_meanfield_uncoupled(problem: MaxEntProblem, check_confined=True) -> EquilibriumResult:
    """The factorized Gibbs pair rho ~ exp(-mu H_Q), D ~ exp(-mu H_C).

    Solves the mean-field maximum-entropy conditions exactly in the uncoupled
    case; for coupled Hamiltonians no such pair exists. No partition
    function is built (``Z_C`` and ``ln_Z_C`` are NaN).
    """
    ham = problem.ham
    if ham.kind != "uncoupled":
        raise UnsupportedHamiltonianError("factorized Gibbs pair requires an uncoupled H")
    prof = ham.extras["h_c"]
    D, shift = _boltzmann(prof.values, problem.mu)

    def finish(Z):
        w, v = np.linalg.eigh(ham.extras["H_Q"])
        rw, _ = _boltzmann(w, problem.mu)
        state = MeanFieldState(ham.grid, D / Z, eigen_compose(v, rw / rw.sum()))
        return state, _dyn.energy_of("mean_field", state, ham)

    return _gibbs(problem, check_confined, (prof.values, prof.d_q, prof.d_p), D, shift, finish)


def equilibrium_at(problem: MaxEntProblem, mu, check_confined=False):
    """The maximum-entropy state of ``problem``'s representation at ``mu``.

    The confinement check is off by default: mid-bisection profiles may be
    delocalized, so only final states are checked.
    """
    sub = MaxEntProblem(problem.representation, problem.ham, mu=mu, branch=problem.branch)
    build = {"uhlmann": gibbs_uhlmann, "conditional": gibbs_conditional,
             "mean_field": gibbs_meanfield_uncoupled}[problem.representation]
    return build(sub, check_confined=check_confined)


def _bisect(f, lo, hi, midpoint, target, rtol, unreachable):
    """Solve f(x)[0] = target on [lo, hi] for a decreasing f(x) = (value,
    payload), splitting the bracket at ``midpoint(lo, hi)`` until the value is
    within a relative ``rtol`` of the target, or 200 times; returns (x, value,
    payload) at the last midpoint. A target outside the values [low, high] at
    the ends raises ``unreachable(low, high)``."""
    ends = f(lo)[0], f(hi)[0]
    if not min(ends) <= target <= max(ends):
        raise unreachable(min(ends), max(ends))
    for _ in range(200):
        x = midpoint(lo, hi)
        value, payload = f(x)
        if abs(value - target) <= rtol * max(abs(target), 1e-30):
            break
        if value > target:  # the target lies at larger x
            lo = x
        else:
            hi = x
    return x, value, payload


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
    mu, energy, _ = _bisect(
        lambda mu: (equilibrium_at(problem, mu).energy, None), 1e-6, 1e6,
        lambda lo, hi: np.sqrt(lo * hi), target, 1e-10,
        lambda low, high: ProblemError("E", f"target energy {target:.6g} outside attainable "
                                            f"range [{low:.6g}, {high:.6g}] for this branch/grid"))
    return float(mu), float(energy)


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
        metrics["entropy_change"] = _inv.shannon_pure(final) - _inv.shannon_pure(state)
        metrics.update(marina_residual(state, ham, result.mu))
    elif isinstance(state, UhlmannSplit):
        metrics["entropy_change"] = _inv.entropy_uhlmann(final) - _inv.entropy_uhlmann(state)
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
        w = D * _boltzmann(E_field, delta)[0]
        w = w / float(grid.integrate(w))
        return float(grid.integrate(w * E_field)), w

    return _bisect(energy, -50.0, 50.0, lambda lo, hi: 0.5 * (lo + hi), target_E, 1e-12,
                   lambda low, high: ValueError(
                       "target energy not reachable by reweighting this perturbation"))[2]
