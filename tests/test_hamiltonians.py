import numpy as np
import pytest

from mqclab import (
    PhaseGrid,
    SIGMA_X,
    SIGMA_Z,
    UnsupportedHamiltonianError,
    eigenfields,
    nanowire,
    pure_dephasing,
    scalar_profile,
    tabulated,
    uncoupled,
    zeta_composed,
)
from mqclab.hamiltonians import ScalarProfile, build
from oracles import gradient_fd_error, reconstruction_error


def make_grid(N=48, L=2 * np.pi):
    return PhaseGrid(-L / 2, L / 2, -L / 2, L / 2, N, N)


class TestCatalog:
    def test_uncoupled_harmonic(self):
        grid = make_grid(L=12.0)
        ham = uncoupled(grid, scalar_profile(grid, "harmonic"), SIGMA_X)
        # X_H = (p, -q) times the identity
        assert np.allclose(ham.X_q[..., 0, 0].real, grid.P)
        assert np.allclose(ham.X_q[..., 1, 1].real, grid.P)
        assert np.max(np.abs(ham.X_q[..., 0, 1])) == 0.0
        assert np.allclose(ham.X_p[..., 0, 0].real, -grid.Q)
        assert np.allclose(ham.H[..., 0, 1], 1.0)  # sigma_x block

    def test_nanowire_flat_gradients(self):
        grid = make_grid(L=12.0)
        ham = nanowire(grid, mass=2.0, eta=0.4, B=0.3, trig=False, center_p=0.0)
        assert np.max(np.abs(ham.dH_q)) == 0.0
        expected = grid.P[..., None, None] / 2.0 * np.eye(2) + 0.4 * SIGMA_Z
        assert np.max(np.abs(ham.dH_p - expected)) < 1e-12

    def test_nanowire_trig_matches_polynomial_near_center(self):
        grid = make_grid(N=128)
        trig = nanowire(grid, mass=1.0, eta=0.5, B=0.3, trig=True)
        poly = nanowire(grid, mass=1.0, eta=0.5, B=0.3, trig=False)
        mask = np.abs(grid.P) < 0.2
        diff = np.abs(trig.H - poly.H)[mask]
        assert np.max(diff) < 2e-3  # (p - sin p) ~ p^3/6

    def test_pure_dephasing_gradient(self):
        grid = make_grid(L=12.0)
        eps = 0.3
        h0 = scalar_profile(grid, "harmonic")
        hi = scalar_profile(grid, "coordinate_q", amplitude=eps)
        ham = pure_dephasing(grid, h0, hi, SIGMA_Z)
        expected = grid.Q[..., None, None] * np.eye(2) + eps * SIGMA_Z
        assert np.max(np.abs(ham.dH_q - expected)) < 1e-12

    def test_analytic_gradients_match_stencil(self):
        # seam-free kinds: 4th-order agreement, observed order >= 3.5
        errs = []
        for N in (48, 96):
            grid = make_grid(N)
            ham = nanowire(grid, trig=True)
            errs.append(gradient_fd_error(ham))
        assert errs[0] < 1e-4
        assert np.log2(errs[0] / errs[1]) > 3.5

        grid = make_grid(64)
        zeta = scalar_profile(grid, "sin2_well", amplitude=0.7)
        ham = zeta_composed(grid, zeta, [0.3 * SIGMA_X, SIGMA_Z])
        assert gradient_fd_error(ham) < 1e-3

    def test_tabulated_uses_stencil(self):
        grid = make_grid()
        ref = nanowire(grid, trig=True)
        tab = tabulated(grid, ref.H)
        assert np.max(np.abs(tab.dH_p - ref.dH_p)) < 1e-4

    def test_non_hermitian_rejected(self):
        grid = make_grid(16)
        with pytest.raises(Exception):
            pure_dephasing(grid, scalar_profile(grid, "zero"),
                           scalar_profile(grid, "zero"),
                           np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_build_dispatch_and_unknown_kind(self):
        grid = make_grid(16)
        ham = build(grid, {"kind": "nanowire", "eta": 0.1, "B": 0.2})
        assert ham.kind == "nanowire"
        with pytest.raises(UnsupportedHamiltonianError):
            build(grid, {"kind": "frobnicate"})
        with pytest.raises(KeyError):
            build(grid, {})


class TestEigenfields:
    def test_zeta_sigma_z(self):
        grid = make_grid()
        base = scalar_profile(grid, "sin2_well", amplitude=0.5)
        zeta = ScalarProfile(base.name, base.values + 0.2, base.d_q, base.d_p)
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        eig = eigenfields(ham)
        assert not eig.has_crossing
        assert np.allclose(eig.E[..., 0], -zeta.values, atol=1e-12)
        assert np.allclose(eig.E[..., 1], zeta.values, atol=1e-12)
        # eigenvectors constant (0,1) and (1,0) up to the smooth gauge
        assert np.max(np.abs(np.abs(eig.V[..., 1, 0]) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(eig.V[..., 0, 1]) - 1.0)) < 1e-12

    def test_constant_sigma_x(self):
        grid = make_grid(16)
        B = 0.7
        ham = uncoupled(grid, scalar_profile(grid, "zero"), B * SIGMA_X)
        eig = eigenfields(ham)
        assert np.allclose(eig.E[..., 0], -B)
        assert np.allclose(eig.E[..., 1], B)
        v = eig.V[3, 5, :, 1]
        assert np.allclose(np.abs(v), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)

    def test_nanowire_closed_form(self):
        grid = make_grid()
        m, eta, B = 1.0, 0.5, 0.3
        ham = nanowire(grid, mass=m, eta=eta, B=B, trig=True)
        eig = eigenfields(ham)
        kp = 2 * np.pi / grid.Lp
        ps = np.sin(kp * grid.P) / kp
        kin = (1 - np.cos(kp * grid.P)) / (m * kp**2)
        gap = np.sqrt((eta * ps) ** 2 + B**2)
        assert np.max(np.abs(eig.E[..., 0] - (kin - gap))) < 1e-12
        assert np.max(np.abs(eig.E[..., 1] - (kin + gap))) < 1e-12

    def test_reconstruction(self):
        grid = make_grid()
        ham = nanowire(grid, trig=True)
        eig = eigenfields(ham)
        assert reconstruction_error(ham, eig) < 1e-10

    def test_gauge_smoothness_gives_unit_volume(self):
        # the smoothed eigenfield of a zeta-composed H must carry Lambda = 1
        from mqclab import berry_data

        grid = make_grid(64)
        zeta = scalar_profile(grid, "sin2_well", amplitude=0.7)
        ham = zeta_composed(grid, zeta, [0.3 * SIGMA_X, SIGMA_Z])
        eig = eigenfields(ham)
        psi = np.ascontiguousarray(eig.V[..., :, 0])
        lam = berry_data(grid, psi).Lambda
        assert np.max(np.abs(lam - 1.0)) < 1e-10

    def test_crossing_detected(self):
        grid = make_grid(32)
        zeta = scalar_profile(grid, "sin_q")  # changes sign: gap closes
        ham = zeta_composed(grid, zeta, [np.zeros((2, 2)), SIGMA_Z])
        eig = eigenfields(ham)
        assert eig.has_crossing
