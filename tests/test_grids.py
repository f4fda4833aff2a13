import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mqclab import PhaseGrid, matrix_function, vn_entropy_trace, random_band_limited
from mqclab.grids import EIG_CLAMP, NotHermitianError, _bspline_stencil, _grid_first, component_major
from oracles import poisson_bracket


def make_grid(N=64, L=2 * np.pi, hbar=1.0):
    return PhaseGrid(-L / 2, L / 2, -L / 2, L / 2, N, N, hbar=hbar)


class TestDerivatives:
    def test_sin_derivative_analytic(self):
        grid = make_grid(64)
        k = 2 * np.pi / grid.Lq
        f = np.sin(k * grid.Q)
        df = grid.partial_q(f)
        exact = k * np.cos(k * grid.Q)
        assert np.max(np.abs(df - exact)) < (k * grid.dq) ** 4

    def test_constant_derivative_exact_zero(self):
        grid = make_grid(32)
        f = np.full(grid.shape, 3.7)
        assert np.all(grid.partial_q(f) == 0.0)
        assert np.all(grid.partial_p(f) == 0.0)

    def test_product_field_against_symbolic_oracle(self):
        # q*p surrogate sin(kq) sin(lp); oracle from symbolic differentiation
        grid = make_grid(64)
        q, p = sp.symbols("q p")
        k, l = 2.0, 3.0
        expr = sp.sin(k * q) * sp.sin(l * p)
        dq_expr = sp.lambdify((q, p), sp.diff(expr, q), "numpy")
        dp_expr = sp.lambdify((q, p), sp.diff(expr, p), "numpy")
        f = np.sin(k * grid.Q) * np.sin(l * grid.P)
        err_q = np.max(np.abs(grid.partial_q(f) - dq_expr(grid.Q, grid.P)))
        err_p = np.max(np.abs(grid.partial_p(f) - dp_expr(grid.Q, grid.P)))
        assert err_q < (k * grid.dq) ** 4 * k
        assert err_p < (l * grid.dp) ** 4 * l

    def test_observed_order_at_least_3p5(self):
        errs = []
        for N in (32, 64):
            grid = make_grid(N)
            f = np.sin(2 * grid.Q) * np.cos(3 * grid.P)
            exact = 2 * np.cos(2 * grid.Q) * np.cos(3 * grid.P)
            errs.append(np.max(np.abs(grid.partial_q(f) - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_matrix_field_entrywise(self):
        grid = make_grid(32)
        M = np.zeros(grid.shape + (2, 2), dtype=complex)
        M[..., 0, 1] = np.exp(1j * grid.Q)
        dM = grid.partial_q(M)
        exact = 1j * np.exp(1j * grid.Q)
        assert np.max(np.abs(dM[..., 0, 1] - exact)) < grid.dq**4
        assert np.max(np.abs(dM[..., 1, 0])) == 0.0


class TestPoissonBracket:
    def test_analytic_example(self):
        grid = make_grid(64)
        k, l = 1.0, 2.0
        f = np.sin(k * grid.Q)
        g = np.cos(l * grid.P)
        pb = poisson_bracket(grid, f, g)
        exact = -k * l * np.cos(k * grid.Q) * np.sin(l * grid.P)
        tol = k * l * ((k * grid.dq) ** 4 + (l * grid.dp) ** 4) / 20.0
        assert np.max(np.abs(pb - exact)) < tol

    def test_self_bracket_zero(self):
        grid = make_grid(32)
        rng = np.random.default_rng(0)
        f = random_band_limited(grid, rng, kmax=3)
        assert np.max(np.abs(poisson_bracket(grid, f, f))) == 0.0

    def test_antisymmetry_and_bilinearity(self):
        grid = make_grid(32)
        rng = np.random.default_rng(1)
        f = random_band_limited(grid, rng, kmax=3)
        g = random_band_limited(grid, rng, kmax=3)
        h = random_band_limited(grid, rng, kmax=3)
        assert np.max(np.abs(poisson_bracket(grid, f, g) + poisson_bracket(grid, g, f))) < 1e-14
        lin = poisson_bracket(grid, 2.0 * f + 3.0 * g, h)
        split = 2.0 * poisson_bracket(grid, f, h) + 3.0 * poisson_bracket(grid, g, h)
        assert np.max(np.abs(lin - split)) < 1e-12

    def test_jacobi_residual_small_and_decaying(self):
        def jacobi(N):
            grid = make_grid(N)
            rng = np.random.default_rng(7)
            f = random_band_limited(grid, rng, kmax=1)
            g = random_band_limited(grid, rng, kmax=1)
            h = random_band_limited(grid, rng, kmax=1)
            r = (
                poisson_bracket(grid, f, poisson_bracket(grid, g, h))
                + poisson_bracket(grid, g, poisson_bracket(grid, h, f))
                + poisson_bracket(grid, h, poisson_bracket(grid, f, g))
            )
            return np.max(np.abs(r))

        r256, r512 = jacobi(256), jacobi(512)
        assert r512 < 1e-8
        assert r256 / r512 > 8.0  # 4th-order decay


class TestIntegrate:
    def test_constant(self):
        grid = make_grid(32, L=4.0)
        assert np.isclose(grid.integrate(np.ones(grid.shape)), 16.0, rtol=0, atol=1e-13)

    def test_periodic_sine_is_zero(self):
        grid = make_grid(64)
        f = np.sin(2 * np.pi * grid.Q / grid.Lq)
        assert abs(grid.integrate(f)) < 1e-12

    def test_gaussian_mass_against_erf_oracle(self):
        grid = make_grid(64, L=2 * np.pi)
        sq, sp_ = 0.5, 0.4
        f = np.exp(-0.5 * (grid.Q / sq) ** 2 - 0.5 * (grid.P / sp_) ** 2)
        # truncated-domain mass from the error function, per axis
        half = grid.Lq / 2
        mass_q = sq * np.sqrt(2 * np.pi) * math.erf(half / (sq * np.sqrt(2)))
        mass_p = sp_ * np.sqrt(2 * np.pi) * math.erf(half / (sp_ * np.sqrt(2)))
        assert np.isclose(grid.integrate(f), mass_q * mass_p, rtol=1e-8)

    def test_bracket_integrates_to_zero(self):
        grid = make_grid(48)
        rng = np.random.default_rng(3)
        f = random_band_limited(grid, rng, kmax=3)
        g = random_band_limited(grid, rng, kmax=3)
        val = grid.integrate(poisson_bracket(grid, f, g))
        scale = np.max(np.abs(f)) * np.max(np.abs(g))
        assert abs(val) < 1e-10 * max(scale, 1.0)


class TestMatrixFunctions:
    def test_exp_of_zero_matrix(self):
        assert np.allclose(matrix_function(np.zeros((2, 2)), np.exp), np.eye(2), atol=1e-15)

    def test_entropy_of_maximally_mixed(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert np.isclose(vn_entropy_trace(rho), np.log(2.0), atol=1e-14)

    def test_entropy_against_2x2_closed_form(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        tr, det = 1.0, 0.7 * 0.3 - 0.01
        lam1 = 0.5 * (tr + np.sqrt(tr**2 - 4 * det))
        lam2 = 0.5 * (tr - np.sqrt(tr**2 - 4 * det))
        expected = -(lam1 * np.log(lam1) + lam2 * np.log(lam2))
        assert np.isclose(vn_entropy_trace(rho), expected, atol=1e-13)

    def test_identity_map_returns_input(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = 0.5 * (A + A.conj().T)
        assert np.max(np.abs(matrix_function(A, lambda w: w) - A)) < 1e-12

    def test_pure_state_entropy_finite(self):
        # rank-deficient input: the clamp convention 0 ln 0 = 0 applies
        psi = np.array([1.0, 0.0], dtype=complex)
        rho = np.outer(psi, psi.conj())
        assert vn_entropy_trace(rho) == 0.0

    def test_log_of_psd_with_clamp(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        L = matrix_function(rho, np.log, clamp=EIG_CLAMP)
        assert np.isfinite(L).all()

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            matrix_function(np.array([[0.0, 1.0], [0.0, 0.0]]), np.exp)

    def test_field_stacked(self):
        grid = make_grid(16)
        M = np.zeros(grid.shape + (2, 2), dtype=complex)
        M[..., 0, 0] = 1.0 + 0.1 * np.sin(grid.Q)
        M[..., 1, 1] = 2.0
        E = matrix_function(M, np.exp)
        assert np.allclose(E[..., 0, 0], np.exp(M[..., 0, 0].real))
        assert np.allclose(E[..., 1, 1], np.exp(2.0))


class TestInterpolation:
    def test_nodal_values_exact(self):
        grid = make_grid(32)
        rng = np.random.default_rng(11)
        f = random_band_limited(grid, rng, kmax=3)
        vals = grid.interpolate(f, grid.Q[::5, ::3], grid.P[::5, ::3])
        assert np.max(np.abs(vals - f[::5, ::3])) < 1e-11

    def test_constant_everywhere(self):
        grid = make_grid(16)
        f = np.full(grid.shape, 2.5)
        pts_q = np.array([0.013, -1.7, 3.0])
        pts_p = np.array([0.4, 2.9, -3.1])
        assert np.allclose(grid.interpolate(f, pts_q, pts_p), 2.5, atol=1e-12)

    def test_midpoint_accuracy_band_limited(self):
        errs = []
        for N in (32, 64):
            grid = make_grid(N)
            f = np.sin(2 * grid.Q) * np.cos(grid.P)
            qm = grid.Q + grid.dq / 2
            pm = grid.P + grid.dp / 2
            exact = np.sin(2 * qm) * np.cos(pm)
            errs.append(np.max(np.abs(grid.interpolate(f, qm, pm) - exact)))
        assert errs[0] < (2 * 2 * np.pi / 32) ** 3
        assert errs[0] / errs[1] > 8.0  # at least cubic

    def test_periodic_wraparound(self):
        grid = make_grid(32)
        f = np.sin(grid.Q)
        out = grid.interpolate(f, np.array([grid.q0 - 0.3]), np.array([0.0]))
        inside = grid.interpolate(f, np.array([grid.q0 - 0.3 + grid.Lq]), np.array([0.0]))
        assert np.isclose(out[0], inside[0], atol=1e-12)

    def test_complex_and_vector_fields(self):
        grid = make_grid(32)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = np.exp(1j * grid.Q)
        psi[..., 1] = np.cos(grid.P)
        out = grid.interpolate(psi, np.array([0.1]), np.array([0.2]))
        assert out.shape == (1, 2)
        assert abs(out[0, 0] - np.exp(1j * 0.1)) < 1e-3


def map_coordinates_reference(grid, values, q, p):
    """scipy's periodic cubic spline, one real plane at a time: the reference
    for ``PhaseGrid.interpolate``."""
    ndimage = pytest.importorskip("scipy.ndimage")
    coords = np.stack([(q - grid.q0) / grid.dq, (p - grid.p0) / grid.dp])
    planes = values.reshape(grid.shape + (-1,))

    def one(plane):
        if np.iscomplexobj(plane):
            return one(plane.real) + 1j * one(plane.imag)
        return ndimage.map_coordinates(plane, coords, order=3, mode="grid-wrap")

    cols = [one(planes[..., k]) for k in range(planes.shape[-1])]
    return np.stack(cols, axis=-1).reshape(q.shape + values.shape[2:])


class TestInterpolationProperties:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(8, 40), st.integers(8, 40)).filter(lambda s: s[0] != s[1]),
           complex_valued=st.booleans(), trailing=st.sampled_from([(), (2,), (2, 1)]),
           periods=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_map_coordinates(self, shape, complex_valued, trailing, periods, seed):
        grid = PhaseGrid(-1.3, 2.1, -0.4, 0.9, *shape, hbar=0.7)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(grid.shape + trailing)
        if complex_valued:
            values = values + 1j * rng.standard_normal(grid.shape + trailing)
        nodes = (rng.integers(0, grid.Nq, 5), rng.integers(0, grid.Np, 5))
        # on nodes, inside the domain and up to ``periods`` periods outside it
        q = np.concatenate([grid.q[nodes[0]], rng.uniform(grid.q0, grid.q1, 7),
                            rng.uniform(grid.q0 - periods * grid.Lq,
                                        grid.q1 + periods * grid.Lq, 7)])
        p = np.concatenate([grid.p[nodes[1]], rng.uniform(grid.p0, grid.p1, 7),
                            rng.uniform(grid.p0 - periods * grid.Lp,
                                        grid.p1 + periods * grid.Lp, 7)])
        got = grid.interpolate(values, q, p)
        want = map_coordinates_reference(grid, values, q, p)
        assert got.shape == want.shape and got.dtype == values.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(values))

    @pytest.mark.parametrize("trailing", [(), (2,), (2, 1)])
    def test_scalar_point_returns_trailing_shape(self, trailing):
        grid = PhaseGrid(-1.0, 1.0, -2.0, 2.0, 12, 10)
        values = np.random.default_rng(4).standard_normal(grid.shape + trailing)
        got = grid.interpolate(values, 0.3, -0.7)
        assert np.shape(got) == trailing
        want = grid.interpolate(values, np.array([0.3]), np.array([-0.7]))[0]
        assert np.array_equal(got, want)


    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(8, 24), st.integers(8, 24)), complex_valued=st.booleans(),
           trailing=st.sampled_from([(), (2,), (2, 2)]), scalar_point=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_component_planes_give_the_bits_of_the_interleaved_copy(
            self, shape, complex_valued, trailing, scalar_point, seed):
        """A field stored as component planes, read through its (Nq, Np, ...)
        view, interpolates to the bits of its interleaved copy, at one point
        or at many."""
        grid = PhaseGrid(-1.3, 2.1, -0.4, 0.9, *shape)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(grid.shape + trailing)
        if complex_valued:
            values = values + 1j * rng.standard_normal(grid.shape + trailing)
        planes = component_major(values)
        if trailing:
            assert not planes.flags.c_contiguous
        if scalar_point:
            q, p = rng.uniform(-3.0, 3.0, 2)
        else:
            q, p = rng.uniform(-3.0, 3.0, (2, 9))
        got, want = grid.interpolate(planes, q, p), grid.interpolate(values, q, p)
        assert np.shape(got) == np.shape(want) == np.shape(q) + trailing
        assert np.asarray(got).dtype == values.dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_velocity_plane_view_gives_the_bits_of_its_stacked_copy(self):
        """The loop tracer's input, the (Nq, Np, 2) view of a (2, Nq, Np)
        velocity, interpolates to the bits of the interleaved stack it replaces."""
        grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, 64, 64)
        rng = np.random.default_rng(17)
        velocity = rng.standard_normal((2,) + grid.shape)
        q, p = rng.uniform(-4.0, 4.0, (2, 256))
        got = grid.interpolate(_grid_first(velocity), q, p)
        want = grid.interpolate(np.stack(list(velocity), axis=-1), q, p)
        assert got.shape == (256, 2) and got.tobytes() == want.tobytes()


def bspline_stencil_stacked(x, n):
    """The stencil as it was written before it filled its rows in place:
    the reference for ``_bspline_stencil``."""
    base = np.floor(x)
    t = x - base
    s = 1.0 - t
    t2 = t * t
    t3 = t2 * t
    weights = np.stack([s * s * s, 4.0 - 6.0 * t2 + 3.0 * t3, 1.0 + 3.0 * (t + t2 - t3), t3])
    weights /= 6.0
    nodes = base.astype(np.intp) + np.arange(-1, 3)[:, None, None]
    return nodes % np.reshape(n, (2, 1)), weights


@settings(max_examples=50, deadline=None)
@given(n=st.tuples(st.integers(8, 300), st.integers(8, 300)), k=st.integers(1, 64),
       scale=st.sampled_from([1.0, 50.0, 1e6]), seed=st.integers(0, 2**32 - 1))
def test_bspline_stencil_gives_the_bits_of_the_stacked_form(n, k, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * rng.uniform(-1.0, 1.0, (2, k))
    x[:, : k // 4] = np.round(x[:, : k // 4])  # points on nodes: t = 0
    x_before = x.copy()
    nodes, weights = _bspline_stencil(x, n)
    want_nodes, want_weights = bspline_stencil_stacked(x, n)
    assert np.array_equal(x, x_before)  # the points are not written
    assert nodes.dtype == want_nodes.dtype and np.array_equal(nodes, want_nodes)
    assert weights.shape == want_weights.shape and weights.tobytes() == want_weights.tobytes()


class TestFieldContainers:
    def test_shape_validation(self):
        """A velocity is one (2, Nq, Np) plane stack, and its speed is the one
        rule ``dynamics.max_speed``: |(1, 2)| = sqrt(5) on a uniform field."""
        from mqclab.dynamics import max_speed

        grid = make_grid(16)
        velocity = np.stack([np.ones(grid.shape), 2.0 * np.ones(grid.shape)])
        assert velocity.shape == (2,) + grid.shape
        assert np.isclose(max_speed(velocity), np.sqrt(5.0))


def band_limited_per_mode(grid, rng, kmax, trailing, complex_valued):
    """Reference: the mode-by-mode sum of full-grid exponentials, drawing each
    mode's coefficients (real part, then imaginary part) in (a, b) order."""
    out = np.zeros(grid.shape + trailing, dtype=complex)
    kq = 2 * np.pi / grid.Lq
    kp = 2 * np.pi / grid.Lp
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            coeff = rng.standard_normal(trailing) + 1j * rng.standard_normal(trailing)
            phase = np.exp(1j * (a * kq * grid.Q + b * kp * grid.P))
            out += phase[(...,) + (None,) * len(trailing)] * coeff
    if not complex_valued:
        out = out.real
    return out / np.max(np.abs(out))


class TestRandomBandLimited:
    CASES = [(kmax, trailing, complex_valued) for kmax in range(4)
             for trailing in [(), (3,), (3, 3)] for complex_valued in (False, True)]

    @staticmethod
    def grid():
        return PhaseGrid(-3.0, 5.0, -1.0, 2.0, 24, 20)

    @pytest.mark.parametrize("kmax,trailing,complex_valued", CASES)
    def test_matches_the_per_mode_sum_and_its_generator_state(
            self, kmax, trailing, complex_valued):
        grid = self.grid()
        rng, ref_rng = np.random.default_rng(kmax), np.random.default_rng(kmax)
        f = random_band_limited(grid, rng, kmax=kmax, trailing=trailing,
                                complex_valued=complex_valued)
        ref = band_limited_per_mode(grid, ref_rng, kmax, trailing, complex_valued)
        assert f.shape == ref.shape == grid.shape + trailing
        assert np.max(np.abs(f - ref)) < 1e-13
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("kmax,trailing,complex_valued", CASES)
    def test_band_limit_norm_and_dtype(self, kmax, trailing, complex_valued):
        grid = self.grid()
        f = random_band_limited(grid, np.random.default_rng(7), kmax=kmax, trailing=trailing,
                                complex_valued=complex_valued)
        assert np.max(np.abs(f)) == pytest.approx(1.0, abs=1e-15)
        assert np.iscomplexobj(f) == complex_valued
        spectrum = np.abs(np.fft.fft2(f, axes=(0, 1)))
        kq = np.abs(np.fft.fftfreq(grid.Nq, 1.0 / grid.Nq))
        kp = np.abs(np.fft.fftfreq(grid.Np, 1.0 / grid.Np))
        outside = (kq[:, None] > kmax) | (kp[None, :] > kmax)
        assert np.max(spectrum[outside]) < 1e-12 * np.max(spectrum)
