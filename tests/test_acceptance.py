"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Baseline resolution 64 x 64, n = m = 2, hbar = 1, dt at advective CFL 0.2
unless a criterion's physics demands otherwise (noted inline). Scenarios are
the presets; every tolerance is pinned here.
"""

import numpy as np
import pytest

from mqclab import (
    CasimirC1,
    ConditionalSplit,
    EquilibriumResult,
    MassFunctional,
    MaxEntProblem,
    WeightedTraceFunctional,
    bracket_consistency,
    compose,
    energy_of,
    entropy_meanfield,
    entropy_uhlmann,
    gibbs_conditional,
    presets,
    quantum_marginal,
    renyi_meanfield,
    renyi_mqc,
    rk4_run,
    shannon_pure,
    solve_mu,
    spectral_fn,
    stationarity_residual,
)
from mqclab.config import (
    build_grid,
    build_hamiltonian,
    build_initial_state,
    build_loop,
    build_stepper,
    model_of,
)
from mqclab.diagnostics import make_sample_fn
from mqclab.dynamics import MeanFieldState, StepperConfig, ehrenfest_rhs, beyond_ehrenfest_rhs
from mqclab.grids import trace_field
from mqclab.invariants import lambda_transport_residual
from mqclab.probes import casimir_probe_report, random_smooth_split
from mqclab.states import UhlmannSplit, purity

DRIFT_FLOOR = 1e-12  # round-off: refinement ratios are not meaningful below


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_scenario(cfg, functionals=None, with_loop=False, keep_states=False):
    grid = build_grid(cfg)
    ham = build_hamiltonian(grid, cfg)
    model = model_of(cfg)
    state = build_initial_state(grid, ham, cfg)
    stepper = build_stepper(cfg, grid, ham, model, state)
    loop = build_loop(cfg, grid) if with_loop else None
    dspec = cfg.get("diagnostics", {})
    fn = make_sample_fn(model, ham, functionals=functionals or dspec.get("functionals"),
                        renyi_alpha=2.0, with_loop=loop is not None)
    run = rk4_run(model, state, ham, stepper, sample_fn=fn, loop=loop,
                  keep_states=keep_states)
    assert not run.aborted, run.abort_reason
    return grid, ham, state, stepper, run


def drift_of(run, col, floor=1.0):
    vals = [r[col] for r in run.rows if r.get(col) is not None]
    return max(abs(v - vals[0]) for v in vals) / max(abs(vals[0]), floor)


@pytest.fixture(scope="module")
def nanowire_runs():
    """The criterion-1 scenario at baseline and at refined resolution."""
    out = {}
    for N, tag in ((64, "base"), (128, "fine")):
        cfg = presets.nanowire_conditional(N=N, cfl=0.2, sample_every=8 * (N // 64),
                                           loop=False)
        out[tag] = run_scenario(cfg)
    return out


class TestCriterion1:
    def test_casimir_conservation(self, nanowire_runs):
        _, _, _, _, base = nanowire_runs["base"]
        _, _, _, _, fine = nanowire_runs["fine"]
        cols = {"C1": "C1 (Phi = -Tr x ln x)", "C2": "C2 (Sigma = ln)",
                "S_pure": "S_pure", "renyi_alpha": "renyi(alpha=2)"}
        details = []
        ok = True
        for col, label in cols.items():
            d64 = drift_of(base, col)
            d128 = drift_of(fine, col)
            good = d64 < 1e-4 and (d64 < DRIFT_FLOOR or d64 / d128 >= 8.0)
            ok &= good
            details.append(f"{label}: drift {d64:.2e} (x{d64 / max(d128, 1e-300):.0f} at 128^2)")
        report(1, ok, "; ".join(details))


class TestCriterion2:
    def test_energy_and_mass(self, nanowire_runs):
        _, _, _, _, base = nanowire_runs["base"]
        de = drift_of(base, "energy")
        dm = drift_of(base, "mass")
        report(2, de < 1e-6 and dm < 1e-10,
               f"energy drift {de:.2e} (< 1e-6), mass drift {dm:.2e} (< 1e-10)")


class TestCriterion3:
    def test_casimir_bracket_property(self):
        # static check; resolution chosen inside the runtime budget so the
        # h^4 bracket residual sits below the tolerance
        grid = build_grid({"domain": {"q0": -np.pi, "q1": np.pi, "p0": -np.pi, "p1": np.pi},
                           "grid": {"Nq": 96, "Np": 96, "n": 2}})
        from mqclab.hamiltonians import nanowire

        ham = nanowire(grid)
        rng = np.random.default_rng(2024)
        split = random_smooth_split(grid, 2, rng)
        rep = casimir_probe_report(split, ham, rng, n_probes=20)
        ok = rep["max_ratio"] < 1e-6 and rep["antisymmetry_max"] < 1e-9
        report(3, ok,
               f"20 probes vs C1/C_general: worst |{{{{f,C}}}}|/scale {rep['max_ratio']:.2e} "
               f"(< 1e-6), antisymmetry {rep['antisymmetry_max']:.2e} (< 1e-9)")


class TestCriterion4:
    def test_bracket_dynamics_consistency(self):
        grid = build_grid({"domain": {"q0": -np.pi, "q1": np.pi, "p0": -np.pi, "p1": np.pi},
                           "grid": {"Nq": 64, "Np": 64, "n": 2}})
        from mqclab.hamiltonians import nanowire

        ham = nanowire(grid)
        state = compose(random_smooth_split(grid, 2, np.random.default_rng(11)))
        fs = {
            "mass": MassFunctional(),
            "q^2 moment": WeightedTraceFunctional(grid.Q**2, name="q2"),
            "C1": CasimirC1(spectral_fn("neg_x_log_x_trace")),
        }
        details = []
        ok = True
        for label, f in fs.items():
            r = bracket_consistency(f, state, ham)
            ok &= r["residual"] < 1e-5
            details.append(f"{label}: {r['residual']:.2e}")
        report(4, ok, "|{{f,h}} - dF/dt|/scale " + ", ".join(details) + " (< 1e-5)")


class TestCriterion5:
    def test_purity(self, nanowire_runs):
        # mean-field twin at CFL 0.05: the classic-RK4 unitarity defect at
        # CFL 0.2 (~1e-11) would mask the conservation being certified
        cfg = presets.nanowire_meanfield(N=64)
        _, _, _, _, run_mf = run_scenario(cfg, functionals=["mass", "purity"])
        ps = [r["purity"] for r in run_mf.rows]
        mf_change = max(abs(p - ps[0]) for p in ps) / ps[0]

        _, _, _, _, run_c = nanowire_runs["base"]
        pc = [r["purity"] for r in run_c.rows if r.get("purity") is not None]
        dec = max(abs(p - pc[0]) for p in pc)
        ok = mf_change < 1e-12 and dec > 1e-6
        soft = "" if dec > 1e-3 else " [soft 1e-3 not met]"
        report(5, ok,
               f"mean-field purity change {mf_change:.2e} (< 1e-12); conditional "
               f"decoherence {dec:.3f} (> 1e-6, soft > 1e-3{soft})")


class TestCriterion6:
    def test_renyi_limits(self):
        grid = build_grid({"domain": {"q0": -np.pi, "q1": np.pi, "p0": -np.pi, "p1": np.pi},
                           "grid": {"Nq": 64, "Np": 64, "n": 2},
                           "physics": {"hbar": 0.3}})
        rng = np.random.default_rng(3)
        # three fixed states: a twisted pure split, a smooth mixed split, and
        # a mean-field pair
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(grid.P)
        psi[..., 1] = np.exp(1j * grid.Q) * np.sin(grid.P)
        D = np.exp(np.cos(grid.Q) + np.cos(grid.P))
        D /= grid.integrate(D)
        cond = ConditionalSplit(grid, D, psi)
        mixed = random_smooth_split(grid, 2, rng)
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)

        pairs = [
            ("pure MQC", lambda a: renyi_mqc(cond, a).value, shannon_pure(cond).value),
            ("Uhlmann MQC", lambda a: renyi_mqc(mixed, a).value, entropy_uhlmann(mixed).value),
            ("mean-field", lambda a: renyi_meanfield(grid, D, rho, a),
             entropy_meanfield(grid, D, rho)),
        ]
        ok = True
        details = []
        for label, fam, ref in pairs:
            worst = max(abs(fam(1 + s * 1e-3) - ref) for s in (-1, 1))
            good = worst <= 1e-2 * abs(ref)
            ok &= good
            details.append(f"{label}: {worst:.1e} vs |S|={abs(ref):.2f}")
        report(6, ok, "|renyi(1+-1e-3) - shannon| " + ", ".join(details) + " (<= 1e-2 |S|)")


class TestCriterion7:
    def test_meanfield_reduction(self):
        cfg = presets.uncoupled_factorized(N=64, cfl=0.1)
        grid = build_grid(cfg)
        ham = build_hamiltonian(grid, cfg)
        state = build_initial_state(grid, ham, cfg)
        stepper = build_stepper(cfg, grid, ham, "ehrenfest_density", state)
        dists = []

        def sample(t, st, pts, velocity):
            D = trace_field(st.P)
            rho = quantum_marginal(st)
            dists.append(grid.integrate(np.linalg.norm(st.P - D[..., None, None] * rho,
                                                       axis=(-2, -1))))
            return None

        run = rk4_run("ehrenfest_density", state, ham, stepper, sample_fn=sample,
                      keep_states=False)
        assert not run.aborted
        fact = max(dists)

        # algebraic identity: grad W = 0 makes the Uhlmann entropy the
        # mean-field entropy
        W = np.zeros(grid.shape + (2, 2), dtype=complex)
        W[..., 0, 0] = np.sqrt(0.8)
        W[..., 1, 1] = np.sqrt(0.2)
        D = trace_field(state.P)
        su = entropy_uhlmann(UhlmannSplit(grid, D, W)).value
        smf = entropy_meanfield(grid, D, np.diag([0.8, 0.2]).astype(complex))
        ident = abs(su - smf)
        report(7, fact < 1e-8 and ident < 1e-12,
               f"factorization distance {fact:.2e} (< 1e-8); entropy identity "
               f"|S_uhl - S_mf| = {ident:.2e} (< 1e-12)")


class TestCriterion8:
    def test_equilibrium_stationarity(self):
        # the stationarity tolerance requires the discrete fixed-point defect
        # (pure h^4, verified 5.0x per 1.5x refinement) below 1e-5, which this
        # landscape reaches at N ~ 200; each run stays inside the time budget
        cfg = presets.dephasing_equilibrium(N=224, mu=2.0, omega=0.4, coupling=0.2, branch=1)
        grid = build_grid(cfg)
        ham = build_hamiltonian(grid, cfg)
        problem = MaxEntProblem("conditional", ham, mu=2.0, branch=1)
        res = gibbs_conditional(problem)
        T = 2 * np.pi / 0.4  # one period of the harmonic surrogate
        m = stationarity_residual(res, ham, T_check=T)

        # negative control: perturb the density and rotate the state
        D = res.state.D * (1.0 + 0.1 * np.sin(grid.Q))
        D /= grid.integrate(D)
        ang = 0.1 * np.sin(grid.P)
        rot = np.zeros(grid.shape + (2, 2), dtype=complex)
        rot[..., 0, 0] = np.cos(ang)
        rot[..., 0, 1] = -np.sin(ang)
        rot[..., 1, 0] = np.sin(ang)
        rot[..., 1, 1] = np.cos(ang)
        psi = np.einsum("ijab,ijb->ija", rot, res.state.psi)
        control = EquilibriumResult(ConditionalSplit(grid, D, psi), res.mu, res.Z_C,
                                    res.branch, res.energy)
        mc = stationarity_residual(control, ham, T_check=T)

        ok = (
            m["d_change_l1"] < 1e-5
            and m["projector_change_l1"] < 1e-5
            and m["marina"] < 1e-6
            and mc["d_change_l1"] >= 100 * m["d_change_l1"]
            and mc["marina"] >= 100 * max(m["marina"], 1e-12)
        )
        report(8, ok,
               f"D change {m['d_change_l1']:.2e}, projector change "
               f"{m['projector_change_l1']:.2e} (< 1e-5), marina {m['marina']:.2e} (< 1e-6); "
               f"control exceeds by x{mc['d_change_l1'] / max(m['d_change_l1'], 1e-300):.0f} (D) "
               f"and x{mc['marina'] / max(m['marina'], 1e-12):.0f} (marina)")


class TestCriterion9:
    def test_mu_inversion(self):
        cfg = presets.harmonic_gibbs(N=64, L=16.0, E=0.5)
        grid = build_grid(cfg)
        ham = build_hamiltonian(grid, cfg)
        mu, achieved = solve_mu(MaxEntProblem("conditional", ham, E=0.5, branch=0))
        err = abs(mu * 0.5 - 1.0)
        report(9, err < 1e-3,
               f"harmonic Gibbs: solve_mu(E=0.5) = {mu:.6f}, |mu E - 1| = {err:.2e} (< 1e-3)")


class TestCriterion10:
    def test_poincare_loop(self):
        # nanowire with a gently Berry-active initial state: with the plain
        # spin-up start the invariant is exact to round-off and the
        # refinement requirement is unmeasurable
        drifts = []
        for N in (64, 128):
            cfg = presets.nanowire_twisted(N=N, t_final=2 * np.pi, cfl=0.15,
                                           sample_every=8, amplitude=0.025)
            cfg["diagnostics"]["loop"] = {"center": [0.0, 0.8], "radius": 0.6,
                                          "points": 256}
            _, _, _, _, run = run_scenario(cfg, functionals=["mass"], with_loop=True)
            vals = [r["poincare"] for r in run.rows]
            drifts.append(max(abs(v - vals[0]) for v in vals) / abs(vals[0]))
        ok = drifts[0] < 1e-3 and drifts[1] <= 0.5 * drifts[0]
        report(10, ok,
               f"K=256 loop drift {drifts[0]:.2e} (< 1e-3), {drifts[1]:.2e} at 128^2 "
               f"(x{drifts[0] / drifts[1]:.1f} reduction >= 2)")


class TestCriterion11:
    def test_lambda_transport(self):
        rmss = []
        for N in (64, 128):
            cfg = presets.nanowire_twisted(N=N, t_final=0.5, cfl=0.2, sample_every=8,
                                           amplitude=0.5)
            grid, ham, state, stepper, _ = run_scenario(cfg, functionals=["mass"])
            run = rk4_run("ehrenfest_conditional", state, ham, stepper, keep_states=True)
            _, rms, _ = lambda_transport_residual(run.times, run.states, ham)
            rmss.append(float(np.mean(rms)))
        order = np.log2(rmss[0] / rmss[1])
        report(11, order >= 2.0,
               f"transport residual rms {rmss[0]:.2e} -> {rmss[1]:.2e}, "
               f"observed order {order:.2f} (>= 2)")


class TestCriterion12:
    def test_beyond_ehrenfest(self):
        # (a) classical-only reduction vs the mean-field classical run
        cfg = presets.classical_well(N=64, omega=0.5, t_final=1.0)
        grid = build_grid(cfg)
        ham = build_hamiltonian(grid, cfg)
        state = build_initial_state(grid, ham, cfg)
        stepper = build_stepper(cfg, grid, ham, "beyond_ehrenfest", state)
        run_b = rk4_run("beyond_ehrenfest", state, ham, stepper, keep_states=False)
        mf = MeanFieldState(grid, trace_field(state.P), np.eye(2) / 2)
        run_m = rk4_run("mean_field", mf, ham, stepper, keep_states=False)
        dist_a = float(grid.integrate(np.abs(trace_field(run_b.final_state.P)
                                             - run_m.final_state.D)))

        # (b) gradient-free data matches the Ehrenfest tendency
        from mqclab.hamiltonians import nanowire

        grid2 = build_grid({"domain": {"q0": -np.pi, "q1": np.pi, "p0": -np.pi,
                                       "p1": np.pi},
                            "grid": {"Nq": 64, "Np": 64, "n": 2}})
        ham2 = nanowire(grid2)
        rho0 = np.array([[0.65, 0.15 + 0.1j], [0.15 - 0.1j, 0.35]])
        P = np.broadcast_to(rho0 / grid2.area, grid2.shape + (2, 2)).copy()
        (tb,), _ = beyond_ehrenfest_rhs(grid2, P, ham2)
        (te,), _ = ehrenfest_rhs(grid2, P, ham2)
        dist_b = float(np.max(np.abs(tb - te)))

        # (c) its own energy, Sigma term included, conserved and converging
        drifts = []
        for N in (64, 128):
            cfgc = presets.beyond_nanowire_mixed(N=N, cfl=0.15, t_final=1.0,
                                                 sample_every=4 * (N // 64))
            grid3, ham3, state3, stepper3, _ = run_scenario(cfgc, functionals=["mass"])
            e0 = energy_of("beyond_ehrenfest", state3, ham3)
            run3 = rk4_run("beyond_ehrenfest", state3, ham3, stepper3, keep_states=False)
            e1 = energy_of("beyond_ehrenfest", run3.final_state, ham3)
            drifts.append(abs(e1 - e0) / abs(e0))
        conv_ok = drifts[0] < 1e-3 and (drifts[0] < 1e-8 or drifts[1] <= drifts[0])
        ok = dist_a < 1e-6 and dist_b < 1e-10 and conv_ok
        report(12, ok,
               f"(a) classical reduction L1 {dist_a:.2e} (< 1e-6); (b) gradient-free "
               f"tendency match {dist_b:.2e} (< 1e-10); (c) own-energy drift "
               f"{drifts[0]:.2e} -> {drifts[1]:.2e} (< 1e-3, converging/floor)")


class TestCriterion13:
    def test_roundtrip_and_representation_equivalence(self):
        from mqclab import uhlmann_factor

        grid = build_grid({"domain": {"q0": -np.pi, "q1": np.pi, "p0": -np.pi,
                                      "p1": np.pi},
                           "grid": {"Nq": 64, "Np": 64, "n": 2}})
        state = compose(random_smooth_split(grid, 2, np.random.default_rng(5)))
        back = compose(uhlmann_factor(state, m=2))
        rt = float(np.max(np.abs(back.P - state.P)))

        cfg = presets.nanowire_conditional(N=64, loop=False)
        grid2, ham, split0, stepper, _ = run_scenario(cfg, functionals=["mass"])
        run_c = rk4_run("ehrenfest_conditional", split0, ham, stepper, keep_states=False)
        run_d = rk4_run("ehrenfest_density", compose(split0), ham, stepper,
                        keep_states=False)
        Pc = compose(run_c.final_state).P
        Pd = run_d.final_state.P
        eq = float(grid2.integrate(np.linalg.norm(Pc - Pd, axis=(-2, -1))))
        report(13, rt < 1e-10 and eq < 1e-6,
               f"compose/factor round-trip {rt:.2e} (< 1e-10); (D,psi)- vs P-evolution "
               f"L1 distance {eq:.2e} over one period (< 1e-6)")
