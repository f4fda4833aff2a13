"""Properties of the grid-field kernels: the matrix-field product and
commutator, the periodic stencil and the conservative divergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqclab import PhaseGrid
from mqclab.grids import MM_SUMS_MAX, _diff4, comm, mm

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
