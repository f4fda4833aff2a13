"""Hybrid-state representations and their geometry.

Three encodings of an operator-valued phase-space density:

* ``HybridDensity``    -- P(q,p), an n x n Hermitian PSD matrix field;
* ``UhlmannSplit``     -- (D, W), scalar density times unit-Frobenius-norm
  n x m conditional wave operator, P = D W W^dag;
* ``MeanFieldState``   -- (D, rho), the product P = D rho with one rho.

``ConditionalSplit`` -- (D, psi), P = D psi psi^dag -- is the pure-state
case: an ``UhlmannSplit`` with m = 1 and W = psi[..., None]. Every function
of (D, W) applies to it unchanged; ``psi`` is a view of W's single column.

Every state offers ``grid``, ``n``, the classical density ``D`` (Tr P),
its ``support()``, ``mass()``, ``validate()`` and ``compose()``: P as a
``HybridDensity`` (a density itself, a split through the module function
``compose``). A split and the mean field also have a Liouville volume
``Lambda`` and a conditional ``spectrum``: a split's are 1 + hbar Im Tr
{W^dag, W} and the eigenvalues of W W^dag, both kept (``berry`` holds Lambda
and the Berry connection), so a split is not changed in place once built;
the mean field's are 1 and the eigenvalues of rho. The vacuum policy is
``vacuum_floor``, ``on_support`` and ``floored``.

The matrix and vector fields of every state (P, W and the view psi) are
stored as contiguous component planes (``grids.component_major``): the
constructors convert what they are given, with no copy when it is stored so
already. Snapshot reads, the Gibbs builders, the probe states and the RK4
driver all build their states through these constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import (
    PhaseGrid,
    component_major,
    dagger,
    eigvalsh_field,
    frobenius_norm,
    hermitize,
    mm,
    require_hermitian,
    tr_prod,
    trace_field,
)

# Relative density floor: below eps_D * max(D) the conditional factor is not
# determined by the data and is filled by continuation instead.
EPS_D_REL = 1e-12

# Largest negative eigenvalue (relative to the larger of max D and 1 for a
# density field) that a PSD check forgives as round-off.
PSD_TOL = 1e-10


def vacuum_floor(D, eps_rel=EPS_D_REL):
    """Density below which a point counts as vacuum: eps_rel * max(D).

    The one threshold behind every vacuum policy (the additive regulator of
    the density models, the masks of the functionals, the continuation of
    ``uhlmann_factor``); it stays positive when D vanishes everywhere.
    """
    return eps_rel * max(float(np.max(D)), 1e-300)


def on_support(D, pointwise):
    """``pointwise(D)`` on the support of D and 0 at vacuum points, where
    ``pointwise`` sees D = 1 and its floating-point warnings are silenced."""
    mask = D > vacuum_floor(D)
    Dsafe = np.where(mask, D, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mask, pointwise(Dsafe), 0.0)


def floored(D):
    """D clamped at ``vacuum_floor(D)``: a derivative's divisor, finite at vacuum."""
    return np.maximum(D, vacuum_floor(D))


class UnphysicalStateError(ValueError):
    """Input violates positivity/normalization beyond tolerance."""


def _require_psd_spectrum(w, D, what):
    """The one PSD rule (``PSD_TOL``): eigenvalues ``w`` of trace (field) ``D``."""
    wmin, floor = float(np.min(w)), -PSD_TOL * max(float(np.max(D)), 1.0)
    if wmin < floor:
        raise UnphysicalStateError(f"{what} has eigenvalue {wmin:.3e} < {floor:.1e}")


def _require_psd(M, what):
    """M (a matrix or a matrix field) Hermitian and PSD within ``PSD_TOL``."""
    require_hermitian(M, PSD_TOL, what=what)
    _require_psd_spectrum(eigvalsh_field(hermitize(M)), trace_field(M), what)


def require_density(D):
    """D a classical density: finite, and non-negative within round-off of its max."""
    if not np.all(np.isfinite(D)):
        raise UnphysicalStateError("non-finite classical density")
    if np.min(D) < -1e-12 * np.max(D):
        raise UnphysicalStateError("negative classical density")


class _State:
    """``support()``, ``mass()`` and ``validate()`` (around ``_check``) of every state."""

    def support(self):
        return self.D > vacuum_floor(self.D)

    def mass(self):
        return float(self.grid.integrate(self.D))

    def validate(self, normalized=True):
        """The physics; ``normalized`` adds the unit norm and mass a run drifts in."""
        self._check(normalized)
        if normalized and abs(self.mass() - 1.0) > 1e-8:
            raise UnphysicalStateError(f"D integrates to {self.mass():.12f}, not 1")
        return self


@dataclass
class HybridDensity(_State):
    """Matrix-valued density P(q,p); trace integrates to 1 when normalized."""

    grid: PhaseGrid
    P: np.ndarray  # (Nq, Np, n, n) complex, stored as component planes

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=complex)
        if self.P.shape[:2] != self.grid.shape or self.P.shape[-1] != self.P.shape[-2]:
            raise ValueError("P must have shape (Nq, Np, n, n)")
        self.P = component_major(self.P)

    @property
    def n(self):
        return self.P.shape[-1]

    @property
    def D(self):
        """Classical density Tr P, pointwise."""
        return trace_field(self.P)

    def _check(self, normalized):
        require_density(self.D)
        _require_psd(self.P, "hybrid density")

    def compose(self):
        return self


@dataclass
class UhlmannSplit(_State):
    """(D, W): classical density plus unit-Frobenius conditional wave operator."""

    grid: PhaseGrid
    D: np.ndarray  # (Nq, Np) real, >= 0
    W: np.ndarray  # (Nq, Np, n, m) complex, stored as component planes

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.W = np.asarray(self.W, dtype=complex)
        if self.D.shape != self.grid.shape or self.W.shape[:2] != self.grid.shape:
            raise ValueError("D / W shapes do not match grid")
        self.W = component_major(self.W)

    @property
    def n(self):
        return self.W.shape[-2]

    @property
    def m(self):
        return self.W.shape[-1]

    @cached_property
    def berry(self):
        """Berry connection and Liouville volume of W (``berry_data``)."""
        return berry_data(self.grid, self.W)

    @cached_property
    def Lambda(self):
        """Liouville volume, from the derivatives of W."""
        return lambda_of(self)

    @cached_property
    def spectrum(self):
        """Eigenvalues of W W^dag; the entropy family counts those <= ``EIG_CLAMP`` as 0."""
        return eigvalsh_field(hermitize(outer(self.W)))

    def _check(self, normalized):
        require_density(self.D)
        mask = self.support()
        if normalized and np.any(mask):
            err = float(np.max(np.abs(frobenius_norm(self.W)[mask] ** 2 - 1.0)))
            if err > 1e-10:
                raise UnphysicalStateError(f"W Frobenius-norm error {err:.3e} on the support of D")

    def compose(self):
        return compose(self)


class ConditionalSplit(UhlmannSplit):
    """(D, psi): classical density plus unit conditional state vector.

    The m = 1 Uhlmann split W = psi[..., None]; ``psi`` is a view of W.
    """

    def __init__(self, grid, D, psi):
        super().__init__(grid, D, np.asarray(psi, dtype=complex)[..., None])

    @property
    def psi(self):
        return self.W[..., 0]

    @property
    def spectrum(self):
        """Unit weight of the pure conditional state, not a drifting |psi|^2."""
        return np.ones(self.grid.shape + (1,))


@dataclass
class MeanFieldState(_State):
    """Factorized state: classical density D(q,p) and quantum matrix rho."""

    grid: PhaseGrid
    D: np.ndarray  # (Nq, Np) real, >= 0
    rho: np.ndarray  # (n, n) complex

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.rho = np.asarray(self.rho, dtype=complex)

    @property
    def n(self):
        return self.rho.shape[-1]

    @property
    def Lambda(self):
        """Liouville volume of the product state: 1 everywhere."""
        return np.ones(self.grid.shape)

    @property
    def spectrum(self):
        """Eigenvalues of rho: the (n,) conditional spectrum of every point."""
        return eigvalsh_field(hermitize(self.rho))

    def _check(self, normalized):
        _require_psd(self.rho, "rho")
        require_density(self.D)
        trace = float(np.real(np.trace(self.rho)))
        if normalized and abs(trace - 1.0) > 1e-10:
            raise UnphysicalStateError(f"Tr rho is {trace:.12f}, not 1")

    def compose(self):
        """The product density P = D rho."""
        return HybridDensity(self.grid, self.D[..., None, None] * self.rho)


@dataclass
class BerryData:
    """Berry connection and Liouville volume. ``A_B`` is the connection
    (A_q, A_p) as one (2, Nq, Np) float array of two planes, the layout of
    the velocity a right-hand side returns."""

    A_B: np.ndarray
    Lambda: np.ndarray


# -- marginals and composition ------------------------------------------------


def quantum_marginal(state):
    """rho = integral of P over phase space; Hermitian, unit trace."""
    return hermitize(state.grid.integrate(state.compose().P))


def purity(rho):
    """Tr rho^2 of a density matrix; in [1/n, 1]."""
    return float(tr_prod(rho, rho))


def outer(W):
    """Conditional density W W^dag at every grid point."""
    return mm(W, dagger(W))


def compose(split: UhlmannSplit):
    """Assemble P = D W W^dag (D psi psi^dag for a ConditionalSplit)."""
    return HybridDensity(split.grid, split.D[..., None, None] * outer(split.W))


def conditional_to_uhlmann(split: ConditionalSplit, m=None):
    """Embed psi as the first column of an n x m wave operator."""
    m = split.n if m is None else int(m)
    W = np.zeros(split.grid.shape + (split.n, m), dtype=complex)
    W[..., :, 0] = split.psi
    return UhlmannSplit(split.grid, split.D, W)


# -- Uhlmann factorization -----------------------------------------------------


def uhlmann_factor(state: HybridDensity, m=None):
    """Factor P = D W W^dag with a deterministic gauge.

    Pointwise eigendecomposition with eigenvalues in descending order and the
    first non-negligible component of each eigenvector rotated real-positive.
    Columns are scaled by sqrt(lambda / D) and zero-padded to m >= n columns.
    Vacuum points (D below the relative floor) inherit W from the nearest
    valid grid point along grid lines.
    """
    n = state.n
    m = n if m is None else int(m)
    if m < n:
        raise ValueError(f"ancilla dimension m={m} must be >= n={n}")
    P = hermitize(state.P)
    D = trace_field(P)
    w, v = np.linalg.eigh(P)
    _require_psd_spectrum(w, D, "hybrid density")
    w = np.maximum(w, 0.0)
    # descending eigenvalues
    w = w[..., ::-1]
    v = v[..., ::-1]
    v = _fix_eigvec_phase(v)

    valid = D > vacuum_floor(D)
    Dsafe = np.where(valid, D, 1.0)
    cols = v * np.sqrt(w / Dsafe[..., None])[..., None, :]
    W = np.zeros(state.grid.shape + (n, m), dtype=complex)
    W[..., :, :n] = cols
    if not np.all(valid):
        W = _continue_into_vacuum(W, valid)
    return UhlmannSplit(state.grid, D, W)


def _fix_eigvec_phase(v):
    """Rotate each eigenvector so its first non-negligible entry (above
    1e-12 of its largest) is real > 0."""
    absv = np.abs(v)
    lead = np.argmax(absv > 1e-12 * np.max(absv, axis=-2, keepdims=True), axis=-2)
    lead_vals = np.take_along_axis(v, lead[..., None, :], axis=-2)[..., 0, :]
    phase = np.where(np.abs(lead_vals) > 0, lead_vals / np.abs(np.where(lead_vals == 0, 1, lead_vals)), 1.0)
    return v * np.conj(phase)[..., None, :]


def _continue_into_vacuum(W, valid):
    """Fill invalid points by copying from the nearest valid 4-neighbor,
    iterating until the whole (periodic) grid is covered."""
    W = W.copy()
    valid = valid.copy()
    while not np.all(valid):
        progress = False
        for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
            src_valid = np.roll(valid, shift, axis=axis)
            fill = (~valid) & src_valid
            if np.any(fill):
                W[fill] = np.roll(W, shift, axis=axis)[fill]
                valid |= fill
                progress = True
        if not progress:  # nothing valid anywhere: leave zeros
            break
    return W


# -- Berry geometry ------------------------------------------------------------


def berry_data(grid: PhaseGrid, fieldvals):
    """Berry connection and Liouville volume of a conditional field.

    ``fieldvals`` is (Nq, Np, n) for a state vector or (Nq, Np, n, m) for a
    wave operator; components are paired with the real part of the full
    (Frobenius) inner product:

        A_k      = hbar Im <field | d_k field>
        Lambda   = 1 + 2 hbar Im <d_q field | d_p field>

    equal to 1 + hbar Im Tr {field^dag, field}. Lambda may be non-positive;
    the functionals that need it positive flag it.
    """
    f = np.asarray(fieldvals, dtype=complex)
    axes = tuple(range(2, f.ndim))
    fq = grid.partial_q(f)
    fp = grid.partial_p(f)
    hbar = grid.hbar
    A_B = hbar * np.stack([np.sum(np.conj(f) * fk, axis=axes).imag for fk in (fq, fp)])
    Lam = 1.0 + 2.0 * hbar * np.sum(np.conj(fq) * fp, axis=axes).imag
    return BerryData(A_B, Lam)


def lambda_of(split: UhlmannSplit):
    """Liouville volume of a split state (from the derivatives of W)."""
    return split.berry.Lambda
