import ast
import pathlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mqclab
from mqclab import (
    ConditionalSplit,
    HybridDensity,
    MeanFieldState,
    PhaseGrid,
    UhlmannSplit,
    UnphysicalStateError,
    berry_data,
    compose,
    conditional_to_uhlmann,
    lambda_of,
    purity,
    quantum_marginal,
    uhlmann_factor,
)
from mqclab import config as C
from mqclab import dynamics, presets, states
from mqclab.diagnostics import make_sample_fn
from mqclab.dynamics import MODELS, energy_of
from mqclab.grids import NotHermitianError, random_band_limited
from mqclab.snapshots import write_snapshot

from test_buffers import model_case


def make_grid(N=48, L=2 * np.pi, hbar=1.0):
    return PhaseGrid(-L / 2, L / 2, -L / 2, L / 2, N, N, hbar=hbar)


def gaussian(grid, qc=0.0, pc=0.0, sq=0.6, sp_=0.6):
    D = np.exp(-0.5 * ((grid.Q - qc) / sq) ** 2 - 0.5 * ((grid.P - pc) / sp_) ** 2)
    return D / grid.integrate(D)


def random_psd(grid, n, rng, floor=0.2):
    G = random_band_limited(grid, rng, kmax=2, trailing=(n, n), complex_valued=True)
    P = np.einsum("ijab,ijcb->ijac", G, np.conj(G))
    P = 0.5 * (P + np.conj(np.swapaxes(P, -1, -2)))
    P += floor * np.mean(np.trace(P, axis1=-2, axis2=-1).real) * np.eye(n)
    P /= grid.integrate(np.trace(P, axis1=-2, axis2=-1).real)
    return HybridDensity(grid, P)


class TestMarginals:
    def test_classical_density_projector(self):
        grid = make_grid()
        D0 = gaussian(grid)
        P = np.zeros(grid.shape + (2, 2), dtype=complex)
        P[..., 0, 0] = D0
        assert np.allclose(HybridDensity(grid, P).D, D0)

    def test_classical_density_mixed(self):
        grid = make_grid()
        D0 = gaussian(grid)
        P = 0.5 * D0[..., None, None] * np.eye(2)
        assert np.allclose(HybridDensity(grid, P).D, D0)

    def test_classical_density_matches_eigenvalue_sum(self):
        grid = make_grid(24)
        state = random_psd(grid, 3, np.random.default_rng(0))
        w = np.linalg.eigvalsh(state.P)
        assert np.allclose(state.D, w.sum(axis=-1), atol=1e-12)

    def test_quantum_marginal_factorized(self):
        grid = make_grid()
        rho0 = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
        P = gaussian(grid)[..., None, None] * rho0
        rho = quantum_marginal(HybridDensity(grid, P))
        assert np.max(np.abs(rho - rho0)) < 1e-10

    def test_quantum_marginal_pure_constant(self):
        grid = make_grid()
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        split = ConditionalSplit(grid, gaussian(grid), np.broadcast_to(psi, grid.shape + (2,)).copy())
        rho = quantum_marginal(split)
        proj = np.outer(psi, psi.conj())
        assert np.max(np.abs(rho - proj)) < 1e-12
        assert np.isclose(purity(rho), 1.0, atol=1e-12)

    def test_quantum_marginal_two_bump_mixture(self):
        # two separated bumps carrying different pure states: the marginal is
        # the hand-quadrature convex combination of the two projectors
        grid = make_grid(64)
        g1 = np.exp(-0.5 * ((grid.Q + 1.5) / 0.35) ** 2 - 0.5 * (grid.P / 0.35) ** 2)
        g2 = np.exp(-0.5 * ((grid.Q - 1.5) / 0.35) ** 2 - 0.5 * (grid.P / 0.35) ** 2)
        D = 0.7 * g1 / grid.integrate(g1) + 0.3 * g2 / grid.integrate(g2)
        u1 = np.array([1.0, 0.0], dtype=complex)
        u2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        psi = np.where((grid.Q < 0)[..., None], u1, u2)
        split = ConditionalSplit(grid, D, psi)
        w1 = grid.integrate(np.where(grid.Q < 0, D, 0.0))
        w2 = grid.integrate(np.where(grid.Q >= 0, D, 0.0))
        expected = w1 * np.outer(u1, u1.conj()) + w2 * np.outer(u2, u2.conj())
        assert np.max(np.abs(quantum_marginal(split) - expected)) < 1e-12

    def test_purity_values(self):
        assert np.isclose(purity(0.5 * np.eye(2)), 0.5)
        rho = np.diag([0.8, 0.2])
        assert np.isclose(purity(rho), 0.68)


class TestCompose:
    def test_constant_up_state(self):
        grid = make_grid()
        D = gaussian(grid)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = 1.0
        P = compose(ConditionalSplit(grid, D, psi)).P
        assert np.allclose(P[..., 0, 0].real, D)
        assert np.max(np.abs(P[..., 0, 1])) == 0.0
        assert np.max(np.abs(P[..., 1, 1])) == 0.0

    def test_validation_catches_bad_norm(self):
        grid = make_grid(16)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = 1.3
        with pytest.raises(UnphysicalStateError):
            ConditionalSplit(grid, gaussian(grid), psi).validate()

    def test_validation_catches_negative_eigenvalue(self):
        grid = make_grid(16)
        P = gaussian(grid)[..., None, None] * np.diag([1.0, -0.2])
        with pytest.raises(UnphysicalStateError):
            HybridDensity(grid, P).validate()


class TestStateProtocol:
    @pytest.mark.parametrize("model", list(MODELS))
    def test_every_state_composes_to_its_density(self, model, tmp_path):
        """compose() is a HybridDensity of the state's mass, it validates, and
        the energy of a model without gradient terms is the density's; a state
        that is not a split is snapshotted as its compose()."""
        _, ham, state = model_case(model)
        dens = state.compose()
        assert isinstance(dens, HybridDensity) and dens.compose() is dens
        assert dens.grid is state.grid and dens.n == state.n
        assert abs(dens.mass() - state.mass()) <= 1e-14
        assert state.validate() is state
        if model != "beyond_ehrenfest":
            e, e_dens = energy_of(model, state, ham), energy_of("ehrenfest_density", dens, ham)
            assert abs(e - e_dens) <= 1e-14 * abs(e_dens)
        if not isinstance(state, UhlmannSplit):
            write_snapshot(tmp_path / "state.snap", state)
            write_snapshot(tmp_path / "dens.snap", dens)
            assert (tmp_path / "state.snap").read_bytes() == (tmp_path / "dens.snap").read_bytes()

    def test_a_density_composes_from_a_mean_field_state(self):
        cfg = presets.nanowire_meanfield(N=16)
        grid = C.build_grid(cfg)
        ham = C.build_hamiltonian(grid, cfg)
        mf = C.build_initial_state(grid, ham, cfg)
        cfg["initial"].update(representation="density", compose_from="mean_field")
        assert np.array_equal(C.build_initial_state(grid, ham, cfg).P, mf.compose().P)

    def test_mean_field_state_is_one_class(self):
        assert dynamics.MeanFieldState is states.MeanFieldState is MeanFieldState

    @pytest.mark.parametrize("case", ["not_psd", "not_hermitian", "trace", "negative_D", "mass"])
    def test_mean_field_validation(self, case):
        grid = make_grid(16)
        D, rho = gaussian(grid), np.diag([0.7, 0.3]).astype(complex)
        error = NotHermitianError if case == "not_hermitian" else UnphysicalStateError
        if case == "not_psd":
            rho = np.diag([1.5, -0.5]).astype(complex)
        elif case == "not_hermitian":
            rho[0, 1] = 0.1
        elif case == "trace":
            rho = 1.1 * rho
        elif case == "negative_D":
            D = D - 0.5 * np.max(D)
        else:
            D = 2 * D
        MeanFieldState(grid, gaussian(grid), np.diag([0.7, 0.3])).validate()
        with pytest.raises(error):
            MeanFieldState(grid, D, rho).validate()
        if case in ("trace", "mass"):  # normalization only: a restart's drift
            MeanFieldState(grid, D, rho).validate(normalized=False)

    def test_a_diagnostic_row_composes_once(self, monkeypatch):
        _, ham, state = model_case("ehrenfest_conditional")
        calls = []
        original = states.compose
        monkeypatch.setattr(states, "compose", lambda s: calls.append(1) or original(s))
        row = make_sample_fn("ehrenfest_conditional", ham)(0.0, state, None, {})
        assert len(calls) == 1
        assert None not in (row["energy"], row["purity"], row["C1"])


# The readers that take every state through its protocol, by module, and the
# one function of the module when it is not the whole module.
PROTOCOL_READERS = {"cli": None, "diagnostics": None, "states": "quantum_marginal",
                    "dynamics": "energy_of"}


def mean_field_branches(tree):
    """Lines that test for the mean-field state: isinstance/issubclass
    against ``MeanFieldState``, or a comparison with it or "mean_field"."""
    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance",
                                                                             "issubclass"):
            if "MeanFieldState" in names(node):
                found.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value == "mean_field" for o in operands) \
                    or "MeanFieldState" in set().union(*map(names, operands)):
                found.append(node.lineno)
    return found


def test_no_mean_field_branch_in_the_protocol_readers():
    """``cli``, ``diagnostics``, ``states.quantum_marginal`` and
    ``dynamics.energy_of`` read a state through its protocol and never test
    for the mean-field state or model."""
    root = pathlib.Path(mqclab.__file__).parent
    for module, function in PROTOCOL_READERS.items():
        tree = ast.parse((root / f"{module}.py").read_text())
        if function is not None:
            tree = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == function)
        assert mean_field_branches(tree) == [], module
    # the guard sees the branches of a module that builds the mean-field state
    assert mean_field_branches(ast.parse((root / "config.py").read_text()))


class TestUhlmannFactor:
    def test_pure_state_roundtrip(self):
        grid = make_grid()
        D = gaussian(grid)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(0.3 * grid.P)
        psi[..., 1] = np.sin(0.3 * grid.P) * np.exp(1j * grid.Q)
        state = compose(ConditionalSplit(grid, D, psi))
        split = uhlmann_factor(state, m=2)
        WWd = np.einsum("ijak,ijbk->ijab", split.W, np.conj(split.W))
        proj = np.einsum("ija,ijb->ijab", psi, np.conj(psi))
        mask = D > 1e-8 * D.max()
        assert np.max(np.abs((WWd - proj)[mask])) < 1e-8

    def test_maximally_mixed(self):
        grid = make_grid(24)
        D = gaussian(grid)
        P = D[..., None, None] * (np.eye(2) / 2)
        split = uhlmann_factor(HybridDensity(grid, P), m=2)
        WWd = np.einsum("ijak,ijbk->ijab", split.W, np.conj(split.W))
        mask = D > 1e-8 * D.max()
        assert np.max(np.abs((WWd - np.eye(2) / 2)[mask])) < 1e-10

    def test_random_roundtrip(self):
        grid = make_grid(32)
        state = random_psd(grid, 2, np.random.default_rng(3))
        split = uhlmann_factor(state, m=2)
        back = compose(split)
        assert np.max(np.abs(back.P - state.P)) < 1e-10
        assert np.isclose(grid.integrate(split.D), 1.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(8, 12), n=st.integers(1, 3), rank=st.integers(1, 3),
           pad=st.integers(0, 2), scale=st.integers(-100, 100),
           seed=st.integers(0, 2**32 - 1))
    def test_compose_inverts_the_factor(self, N, n, rank, pad, scale, seed):
        """compose(uhlmann_factor(P)) returns P for a random PSD field P of
        any rank and overall scale, with or without ancilla padding."""
        grid = PhaseGrid(0.0, 1.0, 0.0, 1.0, N, N)
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((N, N, n, min(rank, n))) + 1j * rng.standard_normal(
            (N, N, n, min(rank, n)))
        P = 10.0 ** scale * np.einsum("ijak,ijbk->ijab", G, np.conj(G))
        back = compose(uhlmann_factor(HybridDensity(grid, P), m=n + pad))
        assert np.max(np.abs(back.P - P)) <= 64 * n * np.finfo(float).eps * np.max(np.abs(P))

    def test_rectangular_padding(self):
        grid = make_grid(16)
        state = random_psd(grid, 2, np.random.default_rng(4))
        split = uhlmann_factor(state, m=4)
        assert split.W.shape[-2:] == (2, 4)
        back = compose(split)
        assert np.max(np.abs(back.P - state.P)) < 1e-10

    def test_m_smaller_than_n_rejected(self):
        grid = make_grid(16)
        state = random_psd(grid, 2, np.random.default_rng(5))
        with pytest.raises(ValueError):
            uhlmann_factor(state, m=1)

    def test_unphysical_rejected(self):
        grid = make_grid(16)
        P = gaussian(grid)[..., None, None] * np.diag([1.0, -0.4])
        with pytest.raises(UnphysicalStateError):
            uhlmann_factor(HybridDensity(grid, P), m=2)

    def test_gauge_is_deterministic(self):
        grid = make_grid(16)
        state = random_psd(grid, 2, np.random.default_rng(6))
        W1 = uhlmann_factor(state, m=2).W
        W2 = uhlmann_factor(state, m=2).W
        assert np.array_equal(W1, W2)

    def test_vacuum_continuation(self):
        # dead zone in the density: W is filled from the nearest valid points
        grid = make_grid(32)
        D = gaussian(grid, sq=0.4, sp_=0.4)
        D = np.where(D > 1e-6 * D.max(), D, 0.0)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = 1.0
        state = compose(ConditionalSplit(grid, D, psi))
        split = uhlmann_factor(state, m=2)
        norms = np.linalg.norm(split.W, axis=(-2, -1))
        assert np.min(norms) > 0.999  # continued, not zero-filled


class TestBerryData:
    def test_constant_state(self):
        grid = make_grid()
        psi = np.broadcast_to(np.array([1.0, 1.0j]) / np.sqrt(2), grid.shape + (2,)).copy()
        bd = berry_data(grid, psi)
        assert bd.A_B.shape == (2,) + grid.shape and bd.A_B.dtype == float
        assert np.max(np.abs(bd.A_B)) == 0.0
        assert np.allclose(bd.Lambda, 1.0)

    def test_real_state_has_unit_volume(self):
        # a purely real conditional field has vanishing Berry curvature
        grid = make_grid()
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(grid.Q) * np.cos(0.5 * grid.P)
        psi[..., 1] = np.sqrt(1.0 - psi[..., 0].real ** 2)
        lam = berry_data(grid, psi).Lambda
        assert np.max(np.abs(lam - 1.0)) < 1e-13

    def test_twisted_state_against_symbolic_oracle(self):
        grid = make_grid(64, hbar=0.3)
        k, l = 1, 1
        q, p, hb = sp.symbols("q p hbar", real=True)
        psi1 = sp.cos(k * p)
        psi2 = sp.exp(sp.I * l * q) * sp.sin(k * p)
        bracket = sp.simplify(
            sp.diff(sp.conjugate(psi1), q) * sp.diff(psi1, p)
            - sp.diff(sp.conjugate(psi1), p) * sp.diff(psi1, q)
            + sp.diff(sp.conjugate(psi2), q) * sp.diff(psi2, p)
            - sp.diff(sp.conjugate(psi2), p) * sp.diff(psi2, q)
        )
        lam_expr = sp.lambdify((q, p, hb), 1 + hb * sp.im(bracket), "numpy")
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(k * grid.P)
        psi[..., 1] = np.exp(1j * l * grid.Q) * np.sin(k * grid.P)
        lam = berry_data(grid, psi).Lambda
        expected = lam_expr(grid.Q, grid.P, grid.hbar) * np.ones(grid.shape)
        assert np.max(np.abs(lam - expected)) < 1e-4
        # the closed form of the oracle is 1 - hbar k l sin(2 k p)
        assert np.max(np.abs(expected - (1 - grid.hbar * k * l * np.sin(2 * k * grid.P)))) < 1e-12

    def test_zeta_composed_state_unit_volume(self):
        # psi = phi(zeta(q,p)) has Lambda = 1 up to discretization error,
        # decaying at the stencil order (the exact value is O(1) otherwise)
        errs = []
        for N in (64, 128, 256):
            grid = make_grid(N)
            zeta = np.sin(grid.Q) ** 2 + np.sin(grid.P) ** 2
            psi = np.zeros(grid.shape + (2,), dtype=complex)
            psi[..., 0] = np.cos(zeta) * np.exp(1j * zeta)
            psi[..., 1] = np.sin(zeta) * np.exp(2j * zeta)
            errs.append(np.max(np.abs(berry_data(grid, psi).Lambda - 1.0)))
        assert errs[2] < 1e-4
        assert errs[0] / errs[1] > 8.0 and errs[1] / errs[2] > 8.0

    def test_curvature_integrates_to_zero_on_torus(self):
        grid = make_grid(64)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(0.4 * grid.P)
        psi[..., 1] = np.exp(1j * grid.Q) * np.sin(0.4 * grid.P)
        # note 0.4*P is not grid-periodic; use periodic twist instead
        psi[..., 0] = np.cos(grid.P)
        psi[..., 1] = np.exp(1j * grid.Q) * np.sin(grid.P)
        lam = berry_data(grid, psi).Lambda
        assert abs(grid.integrate(lam) - grid.area) < 1e-8

    def test_waveop_embedding_matches_pure(self):
        grid = make_grid(32)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(grid.P)
        psi[..., 1] = np.exp(1j * grid.Q) * np.sin(grid.P)
        D = gaussian(grid)
        split = ConditionalSplit(grid, D, psi)
        wsplit = conditional_to_uhlmann(split, m=3)
        assert np.max(np.abs(lambda_of(split) - lambda_of(wsplit))) < 1e-14

    def test_nonpositive_lambda_warns(self):
        grid = make_grid(48, hbar=2.0)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.cos(grid.P)
        psi[..., 1] = np.exp(1j * grid.Q) * np.sin(grid.P)
        with pytest.warns(RuntimeWarning):
            berry_data(grid, psi)
