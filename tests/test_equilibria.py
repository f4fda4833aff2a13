import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mqclab import (
    MaxEntProblem,
    PhaseGrid,
    SIGMA_X,
    SIGMA_Z,
    UnsupportedHamiltonianError,
    compose,
    gibbs_conditional,
    gibbs_meanfield_uncoupled,
    gibbs_uhlmann,
    meanfield_maxent_residual,
    nanowire,
    project_to_constraints,
    pure_dephasing,
    scalar_profile,
    shannon_pure,
    solve_mu,
    stationarity_residual,
    uncoupled,
    zeta_composed,
)
from mqclab.dynamics import MeanFieldState
from mqclab.equilibria import ProblemError
from mqclab.grids import eigen_compose, hermitize, pair_planes, pairing_planes, random_band_limited
from mqclab.hamiltonians import ScalarProfile, live_planes
from mqclab.states import ConditionalSplit, quantum_marginal


def big_grid(N=64, L=16.0):
    return PhaseGrid(-L / 2, L / 2, -L / 2, L / 2, N, N)


def torus_grid(N=48):
    return PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, N, N)


def dephasing_ham(grid, eps=0.0, omega=1.0):
    h0 = scalar_profile(grid, "harmonic", omega=omega)
    hi = scalar_profile(grid, "coordinate_q", amplitude=eps)
    return pure_dephasing(grid, h0, hi, SIGMA_Z)


def soft_torus_ham(grid, omega=0.4, coupling=0.2):
    h0 = scalar_profile(grid, "trig_well", omega=omega)
    hi = scalar_profile(grid, "sin_q", amplitude=coupling)
    return pure_dephasing(grid, h0, hi, SIGMA_Z)


def shifted_zeta(grid, amplitude=0.5, offset=0.2):
    base = scalar_profile(grid, "sin2_well", amplitude=amplitude)
    return ScalarProfile(base.name, base.values + offset, base.d_q, base.d_p)


class TestGibbsConditional:
    def test_harmonic_partition_function(self):
        # H_I = 0: D is the classical Gibbs density, Z -> 2 pi / mu
        grid = big_grid()
        ham = dephasing_ham(grid, eps=0.0)
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=2.0, branch=1))
        assert np.isclose(res.Z_C, 2 * np.pi / 2.0, rtol=1e-8)
        h0 = ham.extras["h_0"].values
        expected = np.exp(-2.0 * h0)
        expected /= grid.integrate(expected)
        assert np.max(np.abs(res.state.D - expected)) < 1e-12

    def test_shifted_gaussian_partition_function(self):
        # H_I = eps q, branch a = +1: completing the square gives
        # Z = (2 pi / mu) exp(mu eps^2 / 2)
        grid = big_grid()
        eps, mu = 0.3, 2.0
        ham = dephasing_ham(grid, eps=eps)
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=mu, branch=1))
        assert np.isclose(res.Z_C, (2 * np.pi / mu) * np.exp(mu * eps**2 / 2), rtol=1e-8)
        # psi is the constant +1 eigenvector of sigma_z
        psi = res.state.psi
        assert np.max(np.abs(psi[..., 0] - 1.0)) < 1e-12
        assert np.max(np.abs(psi[..., 1])) < 1e-12

    def test_zeta_composed_branch(self):
        grid = torus_grid(64)
        zeta = shifted_zeta(grid)
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        mu = 1.5
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=mu, branch=1))
        expected = np.exp(-mu * zeta.values)
        expected /= grid.integrate(expected)
        assert np.max(np.abs(res.state.D - expected)) < 1e-10
        assert res.residuals["lambda_max_dev"] < 1e-8
        assert np.isclose(res.energy, grid.integrate(res.state.D * zeta.values), atol=1e-12)

    def test_unsupported_kind_rejected(self):
        grid = torus_grid(16)
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), 0.3 * SIGMA_X)
        with pytest.raises(UnsupportedHamiltonianError):
            gibbs_conditional(MaxEntProblem("conditional", ham, mu=1.0))

    def test_crossing_rejected(self):
        grid = torus_grid(32)
        zeta = scalar_profile(grid, "sin_q")  # changes sign -> gap closes
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        with pytest.raises(ValueError, match="crossing"):
            gibbs_conditional(MaxEntProblem("conditional", ham, mu=1.0))

    def test_growing_profile_rejected(self):
        grid = big_grid(48)
        h0 = scalar_profile(grid, "harmonic", amplitude=-1.0)  # inverted well
        ham = pure_dephasing(grid, h0, scalar_profile(grid, "zero"), SIGMA_Z)
        with pytest.raises(ValueError, match="seam"):
            gibbs_conditional(MaxEntProblem("conditional", ham, mu=1.0))


class TestGibbsUhlmann:
    def test_classical_hamiltonian_gives_mixed_state(self):
        grid = big_grid()
        mu = 1.5
        ham = uncoupled(grid, scalar_profile(grid, "harmonic"), np.zeros((2, 2)))
        res = gibbs_uhlmann(MaxEntProblem("uhlmann", ham, mu=mu))
        W = res.state.W
        WWd = np.einsum("ijak,ijbk->ijab", W, np.conj(W))
        assert np.max(np.abs(WWd - np.eye(2) / 2)) < 1e-12
        h0 = ham.extras["h_c"].values
        expected = np.exp(-mu * h0)
        expected /= grid.integrate(expected)
        assert np.max(np.abs(res.state.D - expected)) < 1e-12

    def test_zeta_sigma_z_closed_form(self):
        grid = torus_grid(64)
        zeta = shifted_zeta(grid)
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        mu = 1.2
        res = gibbs_uhlmann(MaxEntProblem("uhlmann", ham, mu=mu))
        W = res.state.W
        WWd = np.einsum("ijak,ijbk->ijab", W, np.conj(W))
        z = zeta.values
        expected_00 = np.exp(-mu * z) / (2 * np.cosh(mu * z))
        expected_11 = np.exp(mu * z) / (2 * np.cosh(mu * z))
        assert np.max(np.abs(WWd[..., 0, 0].real - expected_00)) < 1e-12
        assert np.max(np.abs(WWd[..., 1, 1].real - expected_11)) < 1e-12
        assert res.residuals["lambda_max_dev"] < 1e-10

    def test_infinite_temperature_limit(self):
        grid = torus_grid(32)
        zeta = shifted_zeta(grid)
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        res = gibbs_uhlmann(MaxEntProblem("uhlmann", ham, mu=1e-9))
        assert np.max(np.abs(res.state.D - 1.0 / grid.area)) < 1e-6
        WWd = np.einsum("ijak,ijbk->ijab", res.state.W, np.conj(res.state.W))
        assert np.max(np.abs(WWd - np.eye(2) / 2)) < 1e-6


class TestSolveMu:
    def test_equipartition_inversion(self):
        # classical harmonic well: E(mu) = 1/mu, so solve_mu(E) E = 1
        grid = big_grid()
        ham = dephasing_ham(grid, eps=0.0)
        problem = MaxEntProblem("conditional", ham, E=0.5, branch=1)
        mu, achieved = solve_mu(problem)
        assert abs(mu * 0.5 - 1.0) < 1e-3
        assert abs(achieved - 0.5) < 1e-10

    def test_shifted_gaussian_moments(self):
        # with H_I = eps q on the +1 branch, E(mu) = 1/mu - eps^2/2 exactly
        grid = big_grid()
        eps = 0.4
        ham = dephasing_ham(grid, eps=eps)
        for mu in (1.0, 2.0, 4.0):
            res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=mu, branch=1))
            assert abs(res.energy - (1.0 / mu - eps**2 / 2)) < 1e-6

    def test_high_temperature_limit(self):
        grid = torus_grid(32)
        zeta = shifted_zeta(grid)
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        problem_ref = MaxEntProblem("uhlmann", ham, mu=2e-4)
        target = gibbs_uhlmann(problem_ref).energy
        mu, achieved = solve_mu(MaxEntProblem("uhlmann", ham, E=target))
        assert mu < 1e-2  # mean of branch energies is the mu -> 0 limit
        assert abs(achieved - target) < 1e-10 * abs(target)

    def test_out_of_range_rejected(self):
        grid = big_grid(48)
        ham = dephasing_ham(grid, eps=0.0)
        with pytest.raises(ValueError, match="range"):
            solve_mu(MaxEntProblem("conditional", ham, E=1e6, branch=1))


class TestStationarity:
    def test_dephasing_equilibrium_is_stationary(self):
        grid = torus_grid(64)
        ham = soft_torus_ham(grid)
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=2.0, branch=1))
        metrics = stationarity_residual(res, ham, T_check=np.pi)
        assert metrics["marina"] < 1e-10
        assert metrics["d_change_l1"] < 1e-5
        assert metrics["projector_change_l1"] < 1e-5
        assert abs(metrics["entropy_change"]) < 1e-6

    def test_perturbed_equilibrium_is_not(self):
        grid = torus_grid(64)
        ham = soft_torus_ham(grid)
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=2.0, branch=1))
        base = stationarity_residual(res, ham, T_check=np.pi)
        pert = res.state
        D = pert.D * (1.0 + 0.1 * np.sin(grid.Q))
        D /= grid.integrate(D)
        rot = np.zeros(grid.shape + (2, 2), dtype=complex)
        ang = 0.1 * np.sin(grid.P)
        rot[..., 0, 0] = np.cos(ang)
        rot[..., 0, 1] = -np.sin(ang)
        rot[..., 1, 0] = np.sin(ang)
        rot[..., 1, 1] = np.cos(ang)
        psi = np.einsum("ijab,ijb->ija", rot, pert.psi)
        from mqclab import ConditionalSplit, EquilibriumResult

        control = EquilibriumResult(ConditionalSplit(grid, D, psi), res.mu, res.Z_C,
                                    res.branch, res.energy)
        worse = stationarity_residual(control, ham, T_check=np.pi)
        assert worse["d_change_l1"] > 100 * base["d_change_l1"]
        assert worse["marina"] > 100 * base["marina"]

    def test_uniform_infinite_temperature_stationary(self):
        grid = torus_grid(48)
        zeta = shifted_zeta(grid)
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        res = gibbs_uhlmann(MaxEntProblem("uhlmann", ham, mu=1e-9))
        metrics = stationarity_residual(res, ham, T_check=1.0)
        assert metrics["d_change_l1"] < 1e-9
        assert metrics["projector_change_l1"] < 1e-5


class TestMeanFieldMaxEnt:
    def test_uncoupled_gibbs_pair(self):
        grid = big_grid()
        ham = uncoupled(grid, scalar_profile(grid, "harmonic"), 0.4 * SIGMA_X)
        state = gibbs_meanfield_uncoupled(MaxEntProblem("mean_field", ham, mu=2.0)).state
        r_q, r_c = meanfield_maxent_residual(state, ham, mu=2.0)
        assert r_q < 1e-8
        assert r_c < 1e-8

    def test_infinite_temperature_uniform(self):
        grid = torus_grid(32)
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), 0.4 * SIGMA_X)
        from mqclab import MeanFieldState

        state = MeanFieldState(grid, np.full(grid.shape, 1.0 / grid.area), np.eye(2) / 2)
        r_q, r_c = meanfield_maxent_residual(state, ham, mu=0.0)
        assert r_q < 1e-12
        assert r_c < 1e-12

    def test_coupled_nanowire_naive_ansatz_fails(self):
        # the detailed-balance obstruction: a drift-carrying factorized Gibbs
        # guess cannot solve both coupled conditions at once
        grid = torus_grid(48)
        ham = nanowire(grid)
        from mqclab import MeanFieldState

        mu = 2.0
        kin = (1 - np.cos(grid.P))
        ptilde = np.sin(grid.P)
        D = np.exp(-mu * (kin - 0.5 * ptilde - (kin - 0.5 * ptilde).min()))
        D /= grid.integrate(D)
        rho_h = grid.integrate(D[..., None, None] * ham.H)
        w, v = np.linalg.eigh(rho_h)
        rw = np.exp(-mu * (w - w.min()))
        rho = (v * (rw / rw.sum())) @ np.conj(v.T)
        state = MeanFieldState(grid, D, rho)
        r_q, r_c = meanfield_maxent_residual(state, ham, mu=mu)
        assert r_c > 1e-3  # reported, not resolved


class TestNegativeMu:
    """A negative mu weights the highest energies. Every builder once referred
    its weight to the minimum energy, where at mu = -1000 it overflowed to a
    NaN state."""

    @pytest.mark.parametrize("representation", ["conditional", "uhlmann", "mean_field"])
    def test_every_builder_gives_a_finite_unit_mass_state(self, representation):
        grid = torus_grid(32)
        ham, build = {
            "conditional": (soft_torus_ham(grid), gibbs_conditional),
            "uhlmann": (zeta_composed(grid, shifted_zeta(grid), [np.zeros((2, 2)), SIGMA_Z]),
                        gibbs_uhlmann),
            "mean_field": (uncoupled(grid, scalar_profile(grid, "trig_well"), 0.4 * SIGMA_X),
                           gibbs_meanfield_uncoupled)}[representation]
        hot, cold = (build(MaxEntProblem(representation, ham, mu=mu, branch=1))
                     for mu in (-1000.0, 1000.0))
        P = hot.state.compose().P
        assert np.all(np.isfinite(P)) and np.isfinite(hot.energy)
        assert grid.integrate(np.trace(P, axis1=-2, axis2=-1).real) == pytest.approx(1.0,
                                                                                    abs=1e-12)
        assert hot.energy > cold.energy

    def test_a_builder_without_mu_raises_at_mu(self):
        grid = torus_grid(32)
        with pytest.raises(ProblemError) as err:
            gibbs_conditional(MaxEntProblem("conditional", soft_torus_ham(grid), E=0.5))
        assert err.value.key == "mu"


class TestLocalMaximality:
    def test_projection_reaches_a_target_above_the_mean(self):
        # raising the energy needs delta < 0: at delta = -50 the weight, once
        # referred to the minimum energy, overflowed to a NaN energy, and this
        # target was called unreachable
        grid = big_grid(32)
        E = 0.5 * (grid.Q**2 + grid.P**2)
        D = np.exp(-E / 2)
        D /= grid.integrate(D)
        target = 1.3 * grid.integrate(D * E)
        w = project_to_constraints(grid, D, E, target)
        assert grid.integrate(w) == pytest.approx(1.0, abs=1e-12)
        assert grid.integrate(w * E) == pytest.approx(target, rel=1e-12)

    def test_gibbs_density_maximizes_entropy_on_constraints(self):
        grid = torus_grid(48)
        ham = soft_torus_ham(grid)
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=2.0, branch=1))
        E_field = ham.extras["h_0"].values + ham.extras["h_i"].values
        from mqclab import ConditionalSplit

        s_eq = shannon_pure(res.state).value
        rng = np.random.default_rng(21)
        from mqclab.grids import random_band_limited

        for _ in range(50):
            pert = res.state.D * (1.0 + 0.15 * random_band_limited(grid, rng, kmax=3))
            try:
                D_proj = project_to_constraints(grid, pert, E_field, res.energy)
            except ValueError:
                continue
            s_pert = shannon_pure(ConditionalSplit(grid, D_proj, res.state.psi)).value
            assert s_pert <= s_eq + 1e-12


# -- the maximum-entropy principle as properties ---------------------------------

SEAM_FREE = ("sin_q", "cos_q", "sin_p", "cos_p", "trig_q", "trig_p")


@st.composite
def seam_free_landscapes(draw):
    """A seam-free Hamiltonian on a small torus: pure dephasing with a
    ``trig_well`` H_0 and a periodic H_I, or the trig nanowire."""
    grid = torus_grid(draw(st.sampled_from([16, 20, 24])))
    if draw(st.booleans()):
        return nanowire(grid, mass=draw(st.floats(0.5, 2.0)), eta=draw(st.floats(0.1, 0.8)),
                        B=draw(st.floats(0.2, 0.6)))
    h0 = scalar_profile(grid, "trig_well", omega=draw(st.floats(0.3, 1.5)))
    hi = scalar_profile(grid, draw(st.sampled_from(SEAM_FREE)),
                        amplitude=draw(st.floats(-0.5, 0.5)))
    return pure_dephasing(grid, h0, hi, SIGMA_Z)


class TestMaxEntProperties:
    @settings(max_examples=50, deadline=None)
    @given(ham=seam_free_landscapes(), mu=st.floats(0.5, 4.0), branch=st.integers(0, 1),
           eps=st.floats(0.02, 0.3), kmax=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_conditional_gibbs_is_a_local_entropy_maximum(self, ham, mu, branch, eps, kmax, seed):
        """No band-limited perturbation of the conditional Gibbs density,
        projected back onto its mass and energy, has more entropy."""
        grid = ham.grid
        res = gibbs_conditional(MaxEntProblem("conditional", ham, mu=mu, branch=branch))
        assert not res.seam_kinked
        # the branch energy <psi|H|psi>
        planes = pairing_planes(ham.H)
        E_field = pair_planes(res.state.W, planes, live_planes(planes),
                              np.empty((1,) + grid.shape))[0]
        s_eq = shannon_pure(res.state).value
        pert = res.state.D * (1.0 + eps * random_band_limited(grid, np.random.default_rng(seed),
                                                               kmax=kmax))
        try:
            D_proj = project_to_constraints(grid, pert, E_field, res.energy)
        except ValueError:  # the energy is out of reach of this reweighting
            assume(False)
        s_pert = shannon_pure(ConditionalSplit(grid, D_proj, res.state.psi)).value
        assert s_pert <= s_eq + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(N=st.sampled_from([16, 20, 24]), omega=st.floats(0.3, 1.5), n=st.integers(2, 3),
           mu=st.floats(0.2, 4.0), eps=st.floats(1e-3, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_meanfield_conditions_vanish_only_at_the_gibbs_pair(self, N, omega, n, mu, eps, seed):
        """Both mean-field residuals vanish at the uncoupled Gibbs pair for a
        random Hermitian H_Q, and stay positive once the pair is perturbed
        (D by exp(eps f), ln rho by eps X, each renormalised)."""
        grid = torus_grid(N)
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H_Q = hermitize(G) / np.max(np.abs(G))
        ham = uncoupled(grid, scalar_profile(grid, "trig_well", omega=omega), H_Q)
        res = gibbs_meanfield_uncoupled(MaxEntProblem("mean_field", ham, mu=mu))
        assert not res.seam_kinked
        r_q, r_c = meanfield_maxent_residual(res.state, ham, mu=mu)
        assert r_q < 1e-8 and r_c < 1e-8

        f = random_band_limited(grid, rng, kmax=2)
        D = res.state.D * np.exp(eps * f)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, v = np.linalg.eigh(hermitize(-mu * H_Q + eps * hermitize(X)))
        rw = np.exp(w - np.max(w))
        perturbed = MeanFieldState(grid, D / grid.integrate(D), eigen_compose(v, rw / rw.sum()))
        r_q, r_c = meanfield_maxent_residual(perturbed, ham, mu=mu)
        assert r_q > 1e-8 and r_c > 1e-8
