import warnings

import numpy as np
import pytest

from mqclab import (
    ConditionalSplit,
    HybridDensity,
    MeanFieldState,
    NumericalAbort,
    PhaseGrid,
    SIGMA_X,
    SIGMA_Z,
    StepperConfig,
    UhlmannSplit,
    beyond_ehrenfest_rhs,
    compose,
    conditional_rhs,
    conditional_to_uhlmann,
    ehrenfest_rhs,
    energy_of,
    mean_field_rhs,
    nanowire,
    pure_dephasing,
    rk4_run,
    scalar_profile,
    uhlmann_rhs,
    uncoupled,
)
from mqclab.dynamics import MODELS, circle_loop, max_speed
from mqclab.grids import frobenius_norm, trace_field


def make_grid(N=48, L=2 * np.pi):
    return PhaseGrid(-L / 2, L / 2, -L / 2, L / 2, N, N)


def gaussian(grid, qc=0.0, pc=0.0, sq=0.7, sp_=0.7):
    D = np.exp(-0.5 * ((grid.Q - qc) / sq) ** 2 - 0.5 * ((grid.P - pc) / sp_) ** 2)
    return D / grid.integrate(D)


def up_state(grid):
    psi = np.zeros(grid.shape + (2,), dtype=complex)
    psi[..., 0] = 1.0
    return psi


def twisted_state(grid, amp=1.0):
    psi = np.zeros(grid.shape + (2,), dtype=complex)
    th = amp * (2 * np.pi / grid.Lp) * grid.P
    psi[..., 0] = np.cos(th)
    psi[..., 1] = np.exp(1j * (2 * np.pi / grid.Lq) * grid.Q) * np.sin(th)
    return psi


class TestMeanFieldRHS:
    def test_uncoupled_rho_tendency_independent_of_density_shape(self):
        grid = make_grid()
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), 0.4 * SIGMA_X)
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        (_, drho1), _ = mean_field_rhs(grid, gaussian(grid), rho, ham)
        (_, drho2), _ = mean_field_rhs(grid, gaussian(grid, qc=0.8, sq=0.4), rho, ham)
        assert np.max(np.abs(drho1 - drho2)) < 1e-12
        HQ = 0.4 * SIGMA_X
        expected = -1j * (HQ @ rho - rho @ HQ)
        assert np.max(np.abs(drho1 - expected)) < 1e-12

    def test_free_streaming(self):
        grid = make_grid(L=12.0)
        m = 2.0
        ham = uncoupled(grid, scalar_profile(grid, "quadratic_p", mass=m), np.zeros((2, 2)))
        D = gaussian(grid)
        (dD, _), _ = mean_field_rhs(grid, D, np.eye(2) / 2, ham)
        expected = -(grid.P / m) * grid.partial_q(D)
        assert np.max(np.abs(dD - expected)) < 1e-12

    def test_dephasing_pointer_state(self):
        grid = make_grid()
        ham = pure_dephasing(grid, scalar_profile(grid, "trig_well"),
                             scalar_profile(grid, "sin_q", amplitude=0.3), SIGMA_Z)
        rho = np.diag([1.0, 0.0]).astype(complex)  # eigenstate of A
        D = gaussian(grid)
        (dD, drho), _ = mean_field_rhs(grid, D, rho, ham)
        assert np.max(np.abs(drho)) < 1e-12
        # D is advected by H_0 + a_n H_I with a_n = +1 (analytic gradients)
        h0, hi = ham.extras["h_0"], ham.extras["h_i"]
        expected = (h0.d_q + hi.d_q) * grid.partial_p(D) - (h0.d_p + hi.d_p) * grid.partial_q(D)
        assert np.max(np.abs(dD - expected)) < 1e-12


class TestEhrenfestRHS:
    def test_factorized_uncoupled_stays_factorized(self):
        grid = make_grid()
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), 0.5 * SIGMA_X)
        D = gaussian(grid)
        rho0 = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        P = D[..., None, None] * rho0
        (tend,), _ = ehrenfest_rhs(grid, P, ham)
        hc = ham.extras["h_c"]
        adv = -(grid.partial_q(D * hc.d_p) + grid.partial_p(D * -hc.d_q))
        rot = -1j * D[..., None, None] * (0.5 * SIGMA_X @ rho0 - rho0 @ (0.5 * SIGMA_X))
        expected = adv[..., None, None] * rho0 + rot
        assert np.max(np.abs(tend - expected)) < 1e-12

    def test_classical_hamiltonian_reduces_to_liouville(self):
        grid = make_grid()
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), np.zeros((2, 2)))
        P = gaussian(grid)[..., None, None] * np.diag([0.5, 0.5])
        (tend,), _ = ehrenfest_rhs(grid, P, ham)
        hc = ham.extras["h_c"]
        D = trace_field(P)
        expected = -(grid.partial_q(D * hc.d_p) + grid.partial_p(D * -hc.d_q))
        assert np.max(np.abs(trace_field(tend) - expected)) < 1e-12

    def test_zero_trace_without_regularization_aborts(self):
        grid = make_grid(16)
        P = np.zeros(grid.shape + (2, 2), dtype=complex)
        P[3:6, 3:6, 0, 0] = 1.0
        ham = nanowire(grid)
        with pytest.raises(NumericalAbort):
            ehrenfest_rhs(grid, P, ham, eps_tr_rel=0.0)

    @pytest.mark.parametrize("rhs", [ehrenfest_rhs, beyond_ehrenfest_rhs])
    def test_zero_trace_aborts_before_dividing(self, rhs):
        grid = make_grid(16)
        P = np.zeros(grid.shape + (2, 2), dtype=complex)
        P[3:6, 3:6, 0, 0] = 1.0
        ham = nanowire(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort, match="zero trace at grid point"):
                rhs(grid, P, ham, eps_tr_rel=0.0)

    def test_rk4_local_error_order(self):
        # Richardson self-comparison: one dt step vs two dt/2 steps
        grid = make_grid(32)
        ham = nanowire(grid)
        state = compose(ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid, 0.5)))

        def one_step(dt, steps):
            cfg = StepperConfig(dt=dt, steps=steps, sample_every=steps)
            return rk4_run("ehrenfest_density", state, ham, cfg).final_state.P

        def defect(dt):
            a = one_step(dt, 1)
            b = one_step(dt / 2, 2)
            return np.max(np.abs(a - b))

        d1, d2 = defect(0.02), defect(0.01)
        assert d1 / d2 > 20.0  # dt^5 local error gives ratio 32


class TestConditionalRHS:
    def test_constant_eigenvector_phase_rotation(self):
        grid = make_grid()
        B = 0.4
        ham = uncoupled(grid, scalar_profile(grid, "zero"), B * SIGMA_X)
        psi = np.broadcast_to(np.array([1.0, 1.0]) / np.sqrt(2), grid.shape + (2,)).copy()
        D = gaussian(grid)
        (dD, dpsi), _ = conditional_rhs(grid, D, psi.astype(complex), ham)
        assert np.max(np.abs(dD)) < 1e-12  # no classical force
        expected = -1j * B * psi
        assert np.max(np.abs(dpsi - expected)) < 1e-12

    def test_classical_hamiltonian_passive_advection(self):
        grid = make_grid()
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), np.zeros((2, 2)))
        psi = twisted_state(grid)
        D = gaussian(grid)
        (dD, dpsi), _ = conditional_rhs(grid, D, psi, ham)
        hc = ham.extras["h_c"]
        Xq, Xp = hc.d_p, -hc.d_q
        adv = -(Xq[..., None] * grid.partial_q(psi) + Xp[..., None] * grid.partial_p(psi))
        phase = -1j * hc.values[..., None] * psi
        assert np.max(np.abs(dpsi - (adv + phase))) < 1e-12
        assert np.max(np.abs(dD - -(grid.partial_q(D * Xq) + grid.partial_p(D * Xp)))) < 1e-12

    def test_representation_equivalence_exact_for_grid_aligned_data(self):
        # q-independent conditional data: both discretizations coincide
        grid = make_grid()
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), up_state(grid))
        (dD, dpsi), _ = conditional_rhs(grid, split.D, split.psi, ham)
        (dP,), _ = ehrenfest_rhs(grid, compose(split).P, ham, eps_tr_rel=0.0)
        proj = np.einsum("ija,ijb->ijab", split.psi, np.conj(split.psi))
        cross = np.einsum("ija,ijb->ijab", dpsi, np.conj(split.psi))
        composed = dD[..., None, None] * proj + split.D[..., None, None] * (
            cross + np.conj(np.swapaxes(cross, -1, -2))
        )
        assert np.max(np.abs(composed - dP)) < 1e-12

    def test_representation_equivalence_generic_converges(self):
        # twisted data: the two discretizations differ by the product-rule
        # defect of the stencils, which decays at 4th order
        defects = []
        for N in (48, 96):
            grid = make_grid(N)
            ham = nanowire(grid)
            split = ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid))
            (dD, dpsi), _ = conditional_rhs(grid, split.D, split.psi, ham)
            (dP,), _ = ehrenfest_rhs(grid, compose(split).P, ham, eps_tr_rel=0.0)
            proj = np.einsum("ija,ijb->ijab", split.psi, np.conj(split.psi))
            cross = np.einsum("ija,ijb->ijab", dpsi, np.conj(split.psi))
            composed = dD[..., None, None] * proj + split.D[..., None, None] * (
                cross + np.conj(np.swapaxes(cross, -1, -2))
            )
            defects.append(np.max(np.abs(composed - dP)))
        assert defects[0] < 1e-4
        assert defects[0] / defects[1] > 8.0


class TestUhlmannRHS:
    def test_embedded_state_matches_conditional(self):
        grid = make_grid()
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid))
        wsplit = conditional_to_uhlmann(split, m=2)
        (dD_c, dpsi), _ = conditional_rhs(grid, split.D, split.psi, ham)
        (dD_u, dW), _ = uhlmann_rhs(grid, wsplit.D, wsplit.W, ham)
        assert np.max(np.abs(dD_c - dD_u)) < 1e-14
        assert np.max(np.abs(dW[..., :, 0] - dpsi)) < 1e-14
        assert np.max(np.abs(dW[..., :, 1])) == 0.0

    def test_constant_w_classical_hamiltonian(self):
        grid = make_grid()
        ham = uncoupled(grid, scalar_profile(grid, "trig_well"), np.zeros((2, 2)))
        W = np.zeros(grid.shape + (2, 2), dtype=complex)
        W[..., 0, 0] = np.sqrt(0.7)
        W[..., 1, 1] = np.sqrt(0.3)
        D = gaussian(grid)
        (dD, dW), _ = uhlmann_rhs(grid, D, W, ham)
        hc = ham.extras["h_c"]
        phase = -1j * hc.values[..., None, None] * W
        assert np.max(np.abs(dW - phase)) < 1e-12

    def test_evolve_then_compose_matches_compose_then_evolve(self):
        grid = make_grid()
        ham = nanowire(grid)
        rng = np.random.default_rng(9)
        # gentle random W: small smooth deviation from a constant
        from mqclab.grids import random_band_limited

        W = np.zeros(grid.shape + (2, 2), dtype=complex)
        W[..., 0, 0] = np.sqrt(0.7)
        W[..., 1, 1] = np.sqrt(0.3)
        W = W + 1e-5 * random_band_limited(grid, rng, kmax=1, trailing=(2, 2),
                                           complex_valued=True)
        W = W / np.linalg.norm(W, axis=(-2, -1))[..., None, None]
        split = UhlmannSplit(grid, gaussian(grid, pc=0.8, sq=0.9, sp_=0.9), W)
        (dD, dW), _ = uhlmann_rhs(grid, split.D, split.W, ham)
        (dP,), _ = ehrenfest_rhs(grid, compose(split).P, ham, eps_tr_rel=0.0)
        A = np.einsum("ijak,ijbk->ijab", W, np.conj(W))
        cross = np.einsum("ijak,ijbk->ijab", dW, np.conj(W))
        composed = dD[..., None, None] * A + split.D[..., None, None] * (
            cross + np.conj(np.swapaxes(cross, -1, -2))
        )
        assert np.max(np.abs(composed - dP)) < 1e-9


class TestBeyondEhrenfest:
    def test_classical_reduction(self):
        grid = make_grid()
        ham = uncoupled(grid, scalar_profile(grid, "trig_well", omega=0.5), np.zeros((2, 2)))
        D = gaussian(grid, sq=0.9, sp_=0.9)
        P = D[..., None, None] * (np.eye(2) / 2)
        (tend,), _ = beyond_ehrenfest_rhs(grid, P, ham)
        hc = ham.extras["h_c"]
        liouville = -(grid.partial_q(D * hc.d_p) + grid.partial_p(D * -hc.d_q))
        assert np.max(np.abs(trace_field(tend) - liouville)) < 1e-10
        offdiag = np.abs(tend[..., 0, 1])
        assert np.max(offdiag) < 1e-12

    def test_gradient_free_matches_ehrenfest(self):
        grid = make_grid()
        ham = nanowire(grid)
        rho0 = np.array([[0.65, 0.15 + 0.1j], [0.15 - 0.1j, 0.35]])
        P = np.broadcast_to(rho0 / grid.area, grid.shape + (2, 2)).copy()
        (t_beyond,), _ = beyond_ehrenfest_rhs(grid, P, ham)
        (t_ehr,), _ = ehrenfest_rhs(grid, P, ham)
        assert np.max(np.abs(t_beyond - t_ehr)) < 1e-10

    @pytest.mark.parametrize("rhs", [ehrenfest_rhs, beyond_ehrenfest_rhs])
    def test_entropy_rates_fall_at_fourth_order(self, rhs):
        """The entropy and C2[ln] are Casimirs of the hybrid bracket, so one
        right-hand side changes them by truncation only: the rate integral
        Re Tr(dC/dP dP/dt), relative to the integral of its absolute value,
        falls at order at least 3.5 over 32^2, 64^2 and 128^2 under the
        beyond-Ehrenfest tendency, as under the Ehrenfest one (the control).
        The state is a composed smooth split with a Lambda-dependent member;
        C1 is left out, as any real velocity and Hermitian generator keep it."""
        from mqclab import CasimirGeneral, GammaSpec, presets, scalar_fn
        from mqclab.config import build_grid, build_hamiltonian
        from mqclab.grids import tr_prod
        from mqclab.probes import random_smooth_split

        rates = []
        for N in (32, 64, 128):
            cfg = presets.beyond_nanowire_mixed(N=N)
            grid = build_grid(cfg)
            ham = build_hamiltonian(grid, cfg)
            split = random_smooth_split(grid, 2, np.random.default_rng(3))
            state = compose(split)
            (dP,), _ = rhs(grid, state.P, ham)
            row = []
            for gamma in (GammaSpec.entropy(), GammaSpec.from_sigma(scalar_fn("log"))):
                rate = tr_prod(CasimirGeneral(gamma, split=split).derivative(state), dP)
                row.append(abs(grid.integrate(rate)) / grid.integrate(np.abs(rate)))
            rates.append(row)
        orders = np.log2(np.array(rates[:-1]) / np.array(rates[1:]))
        assert np.all(orders >= 3.5), (rates, orders)

    def test_energy_reduces_when_gradient_free(self):
        grid = make_grid()
        ham = nanowire(grid)
        rho0 = np.array([[0.65, 0.15 + 0.1j], [0.15 - 0.1j, 0.35]])
        P = np.broadcast_to(rho0 / grid.area, grid.shape + (2, 2)).copy()
        state = HybridDensity(grid, P)
        e_b = energy_of("beyond_ehrenfest", state, ham)
        e_e = energy_of("ehrenfest_density", state, ham)
        assert abs(e_b - e_e) < 1e-12

    def test_energy_conservation_short_run(self):
        # the model's 1/D structure needs D bounded away from zero: mix a
        # uniform floor into the Gaussian
        from mqclab import eigenfields

        drifts = []
        for N, steps in ((48, 100), (96, 200)):
            grid = make_grid(N)
            ham = nanowire(grid)
            eig = eigenfields(ham)
            W = np.zeros(grid.shape + (2, 2), dtype=complex)
            W[..., :, 0] = np.sqrt(0.7) * eig.state(0)
            W[..., :, 1] = np.sqrt(0.3) * eig.state(1)
            D = 0.9 * gaussian(grid, pc=1.0, sq=0.9, sp_=0.9) + 0.1 / grid.area
            state = compose(UhlmannSplit(grid, D, W))
            e0 = energy_of("beyond_ehrenfest", state, ham)
            cfg = StepperConfig(dt=1.0 / steps, steps=steps, sample_every=steps)
            run = rk4_run("beyond_ehrenfest", state, ham, cfg)
            assert not run.aborted
            e1 = energy_of("beyond_ehrenfest", run.final_state, ham)
            drifts.append(abs(e1 - e0) / abs(e0))
        assert max(drifts) < 1e-6  # far below the conservation tolerance


class TestRK4Run:
    def test_zero_hamiltonian_is_identity(self):
        grid = make_grid(32)
        ham = uncoupled(grid, scalar_profile(grid, "zero"), np.zeros((2, 2)))
        split = ConditionalSplit(grid, gaussian(grid), twisted_state(grid))
        cfg = StepperConfig(dt=0.05, steps=20, sample_every=20)
        run = rk4_run("ehrenfest_conditional", split, ham, cfg)
        assert np.array_equal(run.final_state.D, split.D)
        assert np.array_equal(run.final_state.psi, split.psi)

    def test_harmonic_return_after_one_period(self):
        # classical rotation: D returns to itself after T = 2 pi, with the
        # defect decaying like dt^4 + h^4
        defects = []
        for N, steps in ((48, 640), (96, 1280)):
            grid = make_grid(N, L=12.0)
            ham = uncoupled(grid, scalar_profile(grid, "harmonic"), np.zeros((2, 2)))
            D = gaussian(grid, qc=1.0, sq=0.8, sp_=0.8)
            state = MeanFieldState(grid, D, np.eye(2) / 2)
            cfg = StepperConfig(dt=2 * np.pi / steps, steps=steps, sample_every=steps)
            run = rk4_run("mean_field", state, ham, cfg)
            assert not run.aborted
            defects.append(grid.integrate(np.abs(run.final_state.D - D)))
        assert defects[0] / defects[1] > 8.0
        assert defects[1] < 1e-3

    def test_mass_conserved_to_roundoff(self):
        grid = make_grid()
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid, 0.5))
        cfg = StepperConfig(dt=0.01, steps=50, sample_every=10)
        run = rk4_run("ehrenfest_conditional", split, ham, cfg)
        masses = [grid.integrate(s.D) for s in run.states]
        assert max(abs(m - masses[0]) for m in masses) < 1e-13

    def test_cfl_guard_aborts(self):
        grid = make_grid(32)
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), up_state(grid))
        cfg = StepperConfig(dt=1.0, steps=5, sample_every=1)
        run = rk4_run("ehrenfest_conditional", split, ham, cfg)
        assert run.aborted
        assert "CFL" in run.abort_reason

    def test_cfl_guard_aborts_on_negative_dt(self):
        # a backward step above the CFL limit trips the guard as a forward one does
        grid = make_grid(32)
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), up_state(grid))
        run = rk4_run("ehrenfest_conditional", split, ham,
                      StepperConfig(dt=-1.0, steps=5, sample_every=1))
        assert run.aborted
        assert "CFL" in run.abort_reason
        assert run.cfl_max_seen > 0

    def test_cfl_warning(self):
        grid = make_grid(32)
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), up_state(grid))
        from mqclab.dynamics import conditional_rhs as crhs

        _, velocity = crhs(grid, split.D, split.psi, ham)
        dt = 0.45 * min(grid.dq, grid.dp) / max_speed(velocity)
        cfg = StepperConfig(dt=dt, steps=2, sample_every=1)
        with pytest.warns(RuntimeWarning, match="CFL"):
            rk4_run("ehrenfest_conditional", split, ham, cfg)

    def test_renormalize_switch(self):
        grid = make_grid(32)
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid))
        cfg = StepperConfig(dt=0.01, steps=20, sample_every=20, renormalize=True)
        run = rk4_run("ehrenfest_conditional", split, ham, cfg)
        norms = np.linalg.norm(run.final_state.psi, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14
        assert abs(grid.integrate(run.final_state.D) - 1.0) < 1e-14

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_renormalize_restores_unit_mass_and_norm(self, model):
        """Each model's renormalisation, from a start off unit mass (and off
        unit Tr rho or unit norm of W): after a step the mass is 1, Tr rho
        is 1 and W has unit Frobenius norm on the support of D."""
        grid = make_grid(16)
        ham = nanowire(grid)
        D = 1.5 * gaussian(grid, pc=0.8)
        split = ConditionalSplit(grid, D, 0.9 * twisted_state(grid))
        state = {"mean_field": MeanFieldState(grid, D, np.diag([0.5, 0.3]).astype(complex)),
                 "ehrenfest_density": compose(split), "beyond_ehrenfest": compose(split),
                 "ehrenfest_conditional": split,
                 "ehrenfest_uhlmann": conditional_to_uhlmann(split)}[model]
        cfg = StepperConfig(dt=0.01, steps=3, sample_every=3, renormalize=True)
        final = rk4_run(model, state, ham, cfg).final_state
        assert abs(final.mass() - 1.0) < 1e-14
        if model == "mean_field":
            assert abs(np.trace(final.rho).real - 1.0) < 1e-14
        if isinstance(final, UhlmannSplit):
            norms = frobenius_norm(final.W)[final.support()]
            assert np.max(np.abs(norms - 1.0)) < 1e-14

    def test_loop_static_under_zero_hamiltonian(self):
        grid = make_grid(32)
        ham = uncoupled(grid, scalar_profile(grid, "zero"), np.zeros((2, 2)))
        split = ConditionalSplit(grid, gaussian(grid), up_state(grid))
        loop = circle_loop((0.0, 0.0), 0.5, 64)
        cfg = StepperConfig(dt=0.05, steps=10, sample_every=5)
        run = rk4_run("ehrenfest_conditional", split, ham, cfg, loop=loop)
        assert np.max(np.abs(run.loop_points[-1] - run.loop_points[0])) < 1e-14

    def test_wrong_state_type_rejected(self):
        grid = make_grid(16)
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid), up_state(grid))
        with pytest.raises(TypeError):
            rk4_run("ehrenfest_density", split, ham, StepperConfig(dt=0.01, steps=1))

    def test_psi_norm_drift_per_unit_time(self):
        grid = make_grid(48)
        ham = nanowire(grid)
        cfg = StepperConfig(dt=0.01, steps=100, sample_every=100)
        # norm preservation is analytic; on resolved data the discrete drift
        # per unit time sits at the integrator floor
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), up_state(grid))
        run = rk4_run("ehrenfest_conditional", split, ham, cfg)
        norms = np.linalg.norm(run.final_state.psi, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        # on twisted data the drift is the stencil product-rule defect and
        # decays at 4th order
        drifts = []
        for N in (48, 96):
            grid = make_grid(N)
            ham = nanowire(grid)
            split = ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid, 0.5))
            run = rk4_run("ehrenfest_conditional", split, ham, cfg)
            norms = np.linalg.norm(run.final_state.psi, axis=-1)
            drifts.append(np.max(np.abs(norms - 1.0)))
        assert drifts[0] / drifts[1] > 8.0

    def test_mean_field_purity_flat(self):
        grid = make_grid(48)
        ham = nanowire(grid)
        D = gaussian(grid, pc=1.0, sq=0.6, sp_=0.6)
        state = MeanFieldState(grid, D, np.diag([1.0, 0.0]).astype(complex))
        cfg = StepperConfig(dt=0.005, steps=200, sample_every=40)
        from mqclab import purity

        run = rk4_run("mean_field", state, ham, cfg)
        ps = [purity(s.rho) for s in run.states]
        assert max(abs(p - ps[0]) for p in ps) < 1e-12

    def test_cfl_abort_records_the_aborting_state_and_time(self):
        # the conditional Gibbs state of the truncated harmonic well speeds up
        # as it leaves the well; at CFL 0.2 the guard trips at step 38
        from mqclab import config as C, equilibria as eq, presets
        from mqclab.dynamics import CFL_MAX, cfl_dt

        cfg = presets.harmonic_gibbs(N=32)
        grid = C.build_grid(cfg)
        ham = C.build_hamiltonian(grid, cfg)
        problem = C.build_problem(grid, ham, cfg)
        state = eq.equilibrium_at(problem, eq.solve_mu(problem)[0], check_confined=True).state
        dt = cfl_dt("ehrenfest_conditional", state, ham, 0.2)
        cfg = StepperConfig(dt=dt, steps=100, sample_every=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the CFL warning before the trip
            run = rk4_run("ehrenfest_conditional", state, ham, cfg, keep_states=True)
        assert run.aborted
        assert run.abort_reason.startswith("CFL guard tripped at step 38:")
        assert len(run.times) == len(run.states) == 5
        assert run.times[-1] == pytest.approx(38 * dt)
        # the recorded state is the one the guard saw: one step beyond it trips again
        _, velocity = conditional_rhs(grid, run.states[-1].D, run.states[-1].psi, ham)
        assert dt * max_speed(velocity) / min(grid.dq, grid.dp) >= CFL_MAX

    def test_loop_tracer_leaves_model_arrays_bit_identical(self):
        grid = make_grid(32)
        ham = nanowire(grid)
        split = ConditionalSplit(grid, gaussian(grid, pc=0.8), twisted_state(grid, 0.5))
        cfg = StepperConfig(dt=0.02, steps=12, sample_every=4, renormalize=True)
        loop = circle_loop((0.0, 0.8), 0.5, 32)
        plain = rk4_run("ehrenfest_conditional", split, ham, cfg)
        traced = rk4_run("ehrenfest_conditional", split, ham, cfg, loop=loop)
        assert traced.times == plain.times
        assert len(traced.loop_points) == len(plain.states) == 4
        assert not np.array_equal(traced.loop_points[-1], loop)
        for a, b in zip(plain.states, traced.states):
            assert np.array_equal(a.D, b.D)
            assert np.array_equal(a.psi, b.psi)
