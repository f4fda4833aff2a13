"""Properties of the grid-field kernels: the matrix-field product and
commutator, the trace of a product, the eigen-composition, the closed-form
2 x 2 spectrum, the velocity pairing and the split right-hand side on
component planes, the periodic stencil and the conservative divergence; and
that they stay the package's one contraction path."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqclab
from mqclab import Hamiltonian, PhaseGrid, tabulated
from mqclab.dynamics import MODELS, beyond_ehrenfest_rhs, ehrenfest_rhs, pairing, uhlmann_rhs
from mqclab.grids import (MM_SUMS_MAX, _diff4, comm, eigen_compose, eigvalsh_field, hermitize, mm,
                          planar, tr_prod)

EPS = np.finfo(float).eps


def random_field(rng, shape, complex_valued):
    out = rng.standard_normal(shape)
    if complex_valued:
        out = out + 1j * rng.standard_normal(shape)
    return out


grid_sizes = st.tuples(st.integers(8, 16), st.integers(8, 16))
seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), m=st.integers(1, 4), seed=seeds)
def test_mm_matches_matmul(k, complex_valued, shape, n, m, seed):
    rng = np.random.default_rng(seed)
    A = random_field(rng, shape + (n, k), complex_valued)
    B = random_field(rng, shape + (k, m), complex_valued)
    got, want = mm(A, B), A @ B
    assert got.shape == want.shape and got.dtype == want.dtype
    if k > MM_SUMS_MAX:  # above the size guard mm is numpy's own product
        assert np.array_equal(got, want)
    tol = 8 * k * EPS * np.max(np.abs(A)) * np.max(np.abs(B))
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("complex_valued", [False, True])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), seed=seeds)
def test_comm_matches_matmul(complex_valued, shape, n, seed):
    rng = np.random.default_rng(seed)
    A = random_field(rng, shape + (n, n), complex_valued)
    B = random_field(rng, shape + (n, n), complex_valued)
    tol = 8 * n * EPS * np.max(np.abs(A)) * np.max(np.abs(B))
    assert np.max(np.abs(comm(A, B) - (A @ B - B @ A))) <= tol


@pytest.mark.parametrize("complex_valued", [False, True])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), k=st.integers(1, MM_SUMS_MAX),
       m=st.integers(1, 4), seed=seeds)
def test_mm_on_planar_view_gives_same_bits(complex_valued, shape, n, k, m, seed):
    rng = np.random.default_rng(seed)
    A = random_field(rng, shape + (n, k), complex_valued)
    B = random_field(rng, shape + (k, m), complex_valued)
    Ap = planar(A)
    assert np.array_equal(Ap, A)
    assert all(Ap[..., i, c].flags.c_contiguous for i, c in np.ndindex(n, k))
    assert np.array_equal(mm(Ap, B), mm(A, B))


@pytest.mark.parametrize("complex_valued", [False, True])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), k=st.integers(1, 4), seed=seeds)
def test_tr_prod_matches_trace_of_matmul(complex_valued, shape, n, k, seed):
    rng = np.random.default_rng(seed)
    A = random_field(rng, shape + (n, k), complex_valued)
    B = random_field(rng, shape + (k, n), complex_valued)
    got = tr_prod(A, B)
    assert got.shape == shape and not np.iscomplexobj(got)
    tol = 8 * n * k * EPS * np.max(np.abs(A)) * np.max(np.abs(B))
    assert np.max(np.abs(got - np.trace(A @ B, axis1=-2, axis2=-1).real)) <= tol


@pytest.mark.parametrize("complex_fw", [False, True])  # complex as exp(i w) for a unitary
@settings(max_examples=25, deadline=None)
@given(field=st.booleans(), shape=grid_sizes, n=st.integers(1, 4), seed=seeds)
def test_eigen_compose_matches_einsum(complex_fw, field, shape, n, seed):
    rng = np.random.default_rng(seed)
    lead = shape if field else ()  # a field or a single matrix
    v = random_field(rng, lead + (n, n), True)
    w = rng.standard_normal(lead + (n,))
    fw = np.exp(1j * w) if complex_fw else w
    got = eigen_compose(v, fw)
    want = np.einsum("...ab,...b,...cb->...ac", v, fw, np.conj(v))
    assert got.shape == want.shape and got.dtype == want.dtype
    tol = 8 * n * EPS * np.max(np.abs(v)) ** 2 * np.max(np.abs(fw))
    assert np.max(np.abs(got - want)) <= tol


# The only functions of the package that call einsum: neither contracts a
# matrix field (the spline gather, and a real dot product of (re, im) parts).
EINSUM_ALLOWED = {("grids", "PhaseGrid.interpolate"), ("dynamics", "pairing")}


def test_einsum_stays_out_of_the_contraction_path():
    """Every matrix-field trace, product and eigen-composition goes through
    ``grids.mm``/``comm``/``tr_prod``/``eigen_compose``: no einsum call
    anywhere in the package outside ``EINSUM_ALLOWED``."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "einsum":
                    found.add((module, ".".join(scope)))
            visit(child, module, inner)

    for path in sorted(pathlib.Path(mqclab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    assert found - EINSUM_ALLOWED == set()
    assert found == EINSUM_ALLOWED  # the guard still sees the two it allows


@st.composite
def hermitian_2x2_fields(draw):
    """Hermitian (Nq, Np, 2, 2) fields, generic or with a = d, b = 0, an
    exact or near degeneracy, all zero, or diagonals spread over 1e-150..1e150."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    kind = draw(st.sampled_from(["generic", "a=d", "b=0", "degenerate", "near-degenerate",
                                 "zero", "wide"]))
    complex_valued = draw(st.booleans())
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(seeds))
    a, d = scale * rng.standard_normal(shape), scale * rng.standard_normal(shape)
    b = scale * random_field(rng, shape, complex_valued)
    if kind == "a=d":
        d = a
    elif kind == "b=0":
        b = 0.0 * b
    elif kind == "degenerate":
        d, b = a, 0.0 * b
    elif kind == "near-degenerate":
        d = a * (1.0 + EPS * rng.integers(-4, 5, shape))
        b = b * EPS
    elif kind == "zero":
        a, d, b = 0.0 * a, 0.0 * d, 0.0 * b
    elif kind == "wide":
        a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150, 150, shape)
        d = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150, 150, shape)
        b = b / scale * 10.0 ** rng.uniform(-150, 150, shape)
    M = np.empty(shape + (2, 2), dtype=complex if complex_valued else float)
    M[..., 0, 0], M[..., 1, 1], M[..., 1, 0] = a, d, b
    M[..., 0, 1] = np.conj(b)
    return M


@settings(max_examples=200, deadline=None)
@given(M=hermitian_2x2_fields())
def test_eigvalsh_field_matches_lapack_for_2x2(M):
    got, want = eigvalsh_field(M), np.linalg.eigvalsh(M)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(got[..., 0] <= got[..., 1])
    norm = np.max(np.abs(M), axis=(-2, -1))  # ||M||_2 <= 2 of these
    assert np.all(np.abs(got - want) <= 8 * EPS * norm[..., None])


@pytest.mark.parametrize("n", [1, 3])
@settings(max_examples=10, deadline=None)
@given(shape=grid_sizes, complex_valued=st.booleans(), seed=seeds)
def test_eigvalsh_field_is_lapack_for_other_sizes(n, shape, complex_valued, seed):
    M = hermitize(random_field(np.random.default_rng(seed), shape + (n, n), complex_valued))
    assert np.array_equal(eigvalsh_field(M), np.linalg.eigvalsh(M))


@pytest.mark.parametrize("layout", ["interleaved", "planar"])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), m=st.integers(1, 3), seed=seeds)
def test_pairing_matches_einsum(layout, shape, n, m, seed):
    rng = np.random.default_rng(seed)
    W = random_field(rng, shape + (n, m), True)
    X = random_field(rng, shape + (n, n), True)  # complex, not Hermitian
    Xl = planar(X) if layout == "planar" else X
    want = np.einsum("ijak,ijab,ijbk->ij", np.conj(W), X, W).real
    tol = 8 * n * n * m * EPS * np.max(np.abs(X)) * np.max(np.abs(W)) ** 2
    assert np.max(np.abs(pairing(W, Xl) - want)) <= tol


def uhlmann_rhs_einsum(grid, D, W, ham):
    """The split right-hand side with its products as einsums: the reference."""
    def pair(X):
        return np.einsum("ijak,ijab,ijbk->ij", np.conj(W), X, W).real

    Xq, Xp = pair(ham.X_q), pair(ham.X_p)
    dD = -grid.divergence(D * Xq, D * Xp)
    dW = -(Xq[..., None, None] * grid.partial_q(W) + Xp[..., None, None] * grid.partial_p(W))
    dW += (-1j / grid.hbar) * np.einsum("ijab,ijbk->ijak", ham.H, W)
    return dD, dW


def random_hamiltonian(grid, rng, n):
    return tabulated(grid, hermitize(random_field(rng, grid.shape + (n, n), True)))


@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds)
def test_uhlmann_rhs_matches_einsum_formula(shape, n, m, seed):
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=0.5)
    ham = random_hamiltonian(grid, rng, n)
    D = 1.0 + 0.5 * rng.random(shape)
    W = random_field(rng, shape + (n, m), True)
    (dD, dW), _ = uhlmann_rhs(grid, D, W, ham)
    want_dD, want_dW = uhlmann_rhs_einsum(grid, D, W, ham)
    X = max(np.max(np.abs(ham.X_q)), np.max(np.abs(ham.X_p)))
    speed = n * n * m * X * np.max(np.abs(W)) ** 2  # bounds |pairing|
    h = min(grid.dq, grid.dp)
    tol_D = 32 * n * n * m * EPS * speed * np.max(D) / h
    tol_W = 32 * n * n * m * EPS * np.max(np.abs(W)) * (
        speed / h + np.max(np.abs(ham.H)) / grid.hbar)
    assert np.max(np.abs(dD - want_dD)) <= tol_D
    assert np.max(np.abs(dW - want_dW)) <= tol_W


def implied_density_tendency(model, arrays, tends):
    """dP/dt of a model's tendencies: dD rho + D drho for the mean field,
    dD W W^dag + D (dW W^dag + W dW^dag) for the splits, dP itself for the
    density models."""
    if len(arrays) == 1:
        return tends[0]
    (D, X), (dD, dX) = arrays, tends
    if model == "mean_field":
        return dD[..., None, None] * X + D[..., None, None] * dX
    W, dW = (Y if Y.ndim == 4 else Y[..., None] for Y in (X, dX))
    Wh, dWh = (np.conj(np.swapaxes(Y, -1, -2)) for Y in (W, dW))
    return dD[..., None, None] * (W @ Wh) + D[..., None, None] * (dW @ Wh + W @ dWh)


@pytest.mark.parametrize("model", list(MODELS))
@settings(max_examples=15, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds)
def test_every_model_has_a_hermitian_density_tendency(model, shape, n, m, seed):
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=0.5)
    ham = random_hamiltonian(grid, rng, n)
    D = 1.0 + 0.5 * rng.random(shape)
    W = random_field(rng, shape + (n, m), True)
    if model == "mean_field":
        rho = random_field(rng, (n, n), True)
        arrays = (D, rho @ np.conj(rho.T))
    elif model == "ehrenfest_conditional":
        arrays = (D, W[..., 0])
    elif model == "ehrenfest_uhlmann":
        arrays = (D, W)
    else:
        arrays = (D[..., None, None] * (W @ np.conj(np.swapaxes(W, -1, -2))),)
    tends, _ = MODELS[model].rhs(grid, ham, arrays)
    dP = implied_density_tendency(model, arrays, tends)
    residual = np.max(np.abs(dP - np.conj(np.swapaxes(dP, -1, -2))))
    assert residual <= 64 * n * m * EPS * np.max(np.abs(dP))


def test_density_rhs_builds_no_planes(monkeypatch):
    """Only the split right-hand side copies the Hamiltonian into planes, so
    density-model runs do not hold the copy."""
    calls = []
    planes = Hamiltonian.planes
    monkeypatch.setattr(Hamiltonian, "planes", lambda self: calls.append(1) or planes(self))
    rng = np.random.default_rng(7)
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 12, 12)
    ham = random_hamiltonian(grid, rng, 2)
    W = random_field(rng, grid.shape + (2, 2), True)
    P = np.einsum("ijak,ijbk->ijab", W, np.conj(W))
    ehrenfest_rhs(grid, P, ham)
    beyond_ehrenfest_rhs(grid, P, ham)
    assert not calls
    uhlmann_rhs(grid, np.ones(grid.shape), W, ham)
    assert calls


@pytest.mark.parametrize("n", [MM_SUMS_MAX, MM_SUMS_MAX + 1])
def test_planes_only_below_the_mm_guard(n):
    """Above the guard ``mm`` is numpy's ``@``, which planes do not help, so
    ``planes()`` hands out the interleaved fields without copying them."""
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 8, 8)
    ham = random_hamiltonian(grid, np.random.default_rng(3), n)
    fields = ham.planes()
    for F, G in zip(fields, (ham.H, ham.X_q, ham.X_p)):
        assert np.array_equal(F, G)
        assert (F is G) == (n > MM_SUMS_MAX)
    assert ("_planes" in ham.extras) == (n <= MM_SUMS_MAX)


def diff4_roll(values, axis, h):
    """The stencil as four rolled copies: the reference for ``_diff4``."""
    m2 = np.roll(values, 2, axis=axis)
    m1 = np.roll(values, 1, axis=axis)
    p1 = np.roll(values, -1, axis=axis)
    p2 = np.roll(values, -2, axis=axis)
    return ((m2 - p2) + 8.0 * (p1 - m1)) / (12.0 * h)


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, h=st.floats(1e-3, 10.0), seed=seeds,
       trailing=st.integers(1, 4).flatmap(lambda n: st.sampled_from([(), (n,), (n, 1), (n, n)])))
def test_diff4_equals_rolled_stencil(axis, complex_valued, shape, h, seed, trailing):
    values = random_field(np.random.default_rng(seed), shape + trailing, complex_valued)
    assert np.array_equal(_diff4(values, axis, h), diff4_roll(values, axis, h))


@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, lengths=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0)),
       trailing=st.sampled_from([(), (2, 2)]), seed=seeds)
def test_divergence_sums_to_zero(shape, lengths, trailing, seed):
    grid = PhaseGrid(0.0, lengths[0], -lengths[1], 0.0, *shape)
    rng = np.random.default_rng(seed)
    Fq = random_field(rng, grid.shape + trailing, bool(trailing))
    Fp = random_field(rng, grid.shape + trailing, bool(trailing))
    total = np.sum(grid.divergence(Fq, Fp), axis=(0, 1))
    scale = max(np.max(np.abs(Fq)) / grid.dq, np.max(np.abs(Fp)) / grid.dp)
    assert np.max(np.abs(total)) <= 16 * EPS * grid.Nq * grid.Np * scale
