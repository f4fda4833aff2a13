"""Properties of the (D, psi) view: ConditionalSplit is the m = 1 Uhlmann split.

Every (D, W) function gives the same bits on a ConditionalSplit and on its
explicit m = 1 embedding. The entropies are where the conditional
representation keeps its own meaning: they weight the pure conditional state
by 1, not by the |psi|^2 of the W W^dag spectrum, and the two differ once the
norm of psi drifts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mqclab import ConditionalSplit, PhaseGrid, conditional_to_uhlmann, tabulated
from mqclab.dynamics import MODELS, conditional_rhs, energy_of, max_speed, uhlmann_rhs
from mqclab.grids import EIG_CLAMP, hermitize, random_band_limited
from mqclab.invariants import (
    GammaSpec,
    casimir_c2,
    casimir_general_value,
    entropy_uhlmann,
    renyi_mqc,
    scalar_fn,
)
from mqclab.states import compose, lambda_of


@st.composite
def conditional_states(draw):
    """Random (D, psi) on a 16^2 grid with a random Hamiltonian field.

    psi is a smooth, gently varying state (so Lambda stays positive) with
    |psi| = 1 + drift * (smooth field): the norm drifts the way it does in a
    run without renormalisation.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.sampled_from([2, 3]))
    hbar = draw(st.sampled_from([0.5, 1.0]))
    drift = draw(st.floats(0.0, 0.2))
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 16, 16, hbar=hbar)
    psi = 0.2 * random_band_limited(grid, rng, kmax=1, trailing=(n,), complex_valued=True)
    psi[..., 0] += 1.0
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    psi *= 1.0 + drift * random_band_limited(grid, rng, kmax=1)[..., None]
    D = 1.2 + random_band_limited(grid, rng, kmax=2)
    D /= grid.integrate(D)
    H = hermitize(random_band_limited(grid, rng, kmax=1, trailing=(n, n), complex_valued=True))
    return ConditionalSplit(grid, D, psi), tabulated(grid, H)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(conditional_states())
def test_m1_embedding_gives_identical_bits(case):
    split, ham = case
    emb = conditional_to_uhlmann(split, m=1)
    grid = split.grid

    (dD_c, dpsi), velocity_c = conditional_rhs(grid, split.D, split.psi, ham)
    (dD_u, dW), velocity_u = uhlmann_rhs(grid, emb.D, emb.W, ham)
    assert dpsi.shape == split.psi.shape and dW.shape == emb.W.shape
    assert same_bits(dD_c, dD_u) and same_bits(dpsi, dW[..., 0])
    assert same_bits(max_speed(velocity_c), max_speed(velocity_u))
    assert same_bits(velocity_c, velocity_u)

    renorm_c = MODELS["ehrenfest_conditional"].renorm(grid, (split.D, split.psi))
    renorm_u = MODELS["ehrenfest_uhlmann"].renorm(grid, (emb.D, emb.W))
    assert same_bits(renorm_c[0], renorm_u[0]) and same_bits(renorm_c[1], renorm_u[1][..., 0])

    assert same_bits(lambda_of(split), lambda_of(emb))
    assert same_bits(compose(split).P, compose(emb).P)
    assert same_bits(energy_of("ehrenfest_conditional", split, ham),
                     energy_of("ehrenfest_uhlmann", emb, ham))

    sigma = scalar_fn("log")
    c2 = casimir_c2(split, sigma).value
    assert same_bits(c2, casimir_c2(emb, sigma).value)
    # the C2 of (D, W) states is also the sigma-only general Casimir
    assert same_bits(c2, casimir_general_value(emb, GammaSpec.from_sigma(sigma)))


@settings(max_examples=25, deadline=None)
@given(conditional_states(), st.sampled_from([0.5, 2.0, 3.0]))
def test_conditional_entropies_keep_unit_weight(case, alpha):
    split, _ = case
    grid, D = split.grid, split.D
    Lam = lambda_of(split)
    mask = D > 1e-12 * np.max(D)
    with np.errstate(invalid="ignore", divide="ignore"):
        # eigenvalue D of P = D psi psi^dag for a unit conditional state
        terms = np.where(D > EIG_CLAMP * np.max(D), -D * np.log(D / Lam), 0.0)
        s_ref = float(grid.integrate(np.where(mask, terms, 0.0)))
        tr = np.power(np.maximum(D / Lam, 0.0), alpha)
        h_ref = float(np.log(grid.integrate(np.where(mask, Lam * tr, 0.0))) / (1.0 - alpha))

    assert np.isfinite(s_ref) and np.isfinite(h_ref)
    assert same_bits(entropy_uhlmann(split).value, s_ref)
    assert same_bits(renyi_mqc(split, alpha).value, h_ref)
