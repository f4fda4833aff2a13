"""Discrete phase-space infrastructure.

Uniform periodic grids on ``[q0, q1) x [p0, p1)`` with 4th-order central
stencils, rectangle quadrature (exact trapezoid on a periodic grid), the
canonical Poisson bracket, periodic bicubic interpolation, and Hermitian
matrix functions via eigendecomposition.

Matrix fields multiply through ``mm`` and ``comm`` ([A, B] = AB - BA). For a
contracted dimension n <= 3 these write each entry as vectorised component
sums over the grid, which beats numpy's batched ``@`` on such small
matrices; for n >= 4 they fall through to ``@``. ``tr_prod`` gives the field
Re Tr(AB) as component sums for every n, without forming the product.

The sums read one matrix component ``A[..., i, c]`` at a time. On an
interleaved (Nq, Np, n, n) array that is a strided walk over the whole
field; ``planar`` stores a field as contiguous (n, n, Nq, Np) component
planes behind the same (Nq, Np, n, n) view, so each component read is one
contiguous plane. That costs a copy, so it pays only for fields that are
read many times by the sums and never change (the Hamiltonian's for
n <= 3, see ``Hamiltonian.planes``).

Grid arrays are indexed ``values[i, j]`` for the point
``(q0 + i*dq, p0 + j*dp)``; any trailing axes (matrix or vector components)
are carried along unchanged by the calculus operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# Eigenvalues below this are clamped inside ln / fractional powers; entropy
# traces use the 0*ln(0) = 0 convention instead.
EIG_CLAMP = 1e-14

HERM_TOL = 1e-12

# Points per direction the 4th-order stencils need at least.
MIN_POINTS = 8


class GridMismatchError(ValueError):
    """Fields living on different grids were combined."""


class NotHermitianError(ValueError):
    """A matrix (field) violated the Hermiticity tolerance."""


class PhaseGrid:
    """Uniform periodic Nq x Np discretization of a rectangle in (q, p).

    Parameters
    ----------
    q0, q1, p0, p1 : float
        Domain bounds; the grid covers [q0, q1) x [p0, p1) periodically.
    Nq, Np : int
        Number of points in each direction.
    hbar : float
        Planck constant carried by all quantum formulas (default 1).
    """

    def __init__(self, q0, q1, p0, p1, Nq, Np, hbar=1.0):
        if not (q1 > q0 and p1 > p0):
            raise ValueError("domain bounds must satisfy q1 > q0 and p1 > p0")
        if Nq < MIN_POINTS or Np < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} points per direction for the stencils")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        self.q0, self.q1, self.p0, self.p1 = float(q0), float(q1), float(p0), float(p1)
        self.Nq, self.Np = int(Nq), int(Np)
        self.hbar = float(hbar)
        self.dq = (self.q1 - self.q0) / self.Nq
        self.dp = (self.p1 - self.p0) / self.Np
        self.q = self.q0 + self.dq * np.arange(self.Nq)
        self.p = self.p0 + self.dp * np.arange(self.Np)
        # 2D coordinate meshes, shape (Nq, Np)
        self.Q, self.P = np.meshgrid(self.q, self.p, indexing="ij")

    @property
    def shape(self):
        return (self.Nq, self.Np)

    @property
    def Lq(self):
        return self.q1 - self.q0

    @property
    def Lp(self):
        return self.p1 - self.p0

    @property
    def area(self):
        return self.Lq * self.Lp

    def compatible(self, other):
        return (
            self.shape == other.shape
            and np.isclose(self.q0, other.q0)
            and np.isclose(self.q1, other.q1)
            and np.isclose(self.p0, other.p0)
            and np.isclose(self.p1, other.p1)
        )

    def require_same(self, other):
        if self is not other and not self.compatible(other):
            raise GridMismatchError("fields live on different grids")

    # -- calculus -----------------------------------------------------------

    def partial_q(self, values):
        """4th-order periodic central difference along q (axis 0)."""
        return _diff4(np.asarray(values), 0, self.dq)

    def partial_p(self, values):
        """4th-order periodic central difference along p (axis 1)."""
        return _diff4(np.asarray(values), 1, self.dp)

    def poisson_bracket(self, f, g):
        """Canonical bracket {f, g} = dq(f) dp(g) - dp(f) dq(g), pointwise."""
        return self.partial_q(f) * self.partial_p(g) - self.partial_p(f) * self.partial_q(g)

    def integrate(self, values):
        """Quadrature sum(values) * dq * dp over the first two axes.

        On a periodic grid the rectangle rule coincides with the trapezoid
        rule and is spectrally accurate for smooth periodic integrands.
        """
        return np.sum(np.asarray(values), axis=(0, 1)) * (self.dq * self.dp)

    def divergence(self, flux_q, flux_p):
        """div(F) = dq(F_q) + dp(F_p) in conservative form.

        Because the stencil is antisymmetric, the grid sum of this divergence
        telescopes to zero exactly: conservative-form transport conserves
        mass to round-off.
        """
        return self.partial_q(flux_q) + self.partial_p(flux_p)

    def interpolate(self, values, q, p):
        """Periodic bicubic interpolation of a grid field at points (q, p).

        Works for real or complex ``values`` with arbitrary trailing axes;
        q and p may be scalars or arrays (broadcast together).
        """
        values = np.asarray(values)
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        iq = (q - self.q0) / self.dq
        ip = (p - self.p0) / self.dp
        coords = np.broadcast_arrays(iq, ip)
        pts_shape = coords[0].shape
        stack = np.stack([c.ravel() for c in coords])

        def _one(plane):
            if np.iscomplexobj(plane):
                re = ndimage.map_coordinates(plane.real, stack, order=3, mode="grid-wrap")
                im = ndimage.map_coordinates(plane.imag, stack, order=3, mode="grid-wrap")
                return re + 1j * im
            return ndimage.map_coordinates(plane, stack, order=3, mode="grid-wrap")

        if values.ndim == 2:
            out = _one(values)
            return out.reshape(pts_shape) if pts_shape else out[0]
        trailing = values.shape[2:]
        flatc = values.reshape(values.shape[0], values.shape[1], -1)
        cols = [_one(flatc[:, :, k]) for k in range(flatc.shape[2])]
        out = np.stack(cols, axis=-1).reshape(stack.shape[1:] + trailing)
        return out.reshape(pts_shape + trailing) if pts_shape else out[0]


def _diff4(values, axis, h):
    # one copy wrapped by two points on each side, read through four slices
    n = values.shape[axis]
    ext = np.take(values, np.arange(-2, n + 2), axis=axis, mode="wrap")
    lead = (slice(None),) * axis
    m2, m1, p1, p2 = (ext[lead + (slice(s, s + n),)] for s in (0, 1, 3, 4))
    # grouped by differences so constants map to exact zero
    return ((m2 - p2) + 8.0 * (p1 - m1)) / (12.0 * h)


# -- field containers -------------------------------------------------------


@dataclass
class VectorField2:
    """Two-component phase-space vector field (X_q, X_p)."""

    grid: PhaseGrid
    X_q: np.ndarray
    X_p: np.ndarray

    def max_speed(self):
        return float(np.max(np.hypot(np.abs(self.X_q), np.abs(self.X_p))))


# -- Hermitian matrix helpers ------------------------------------------------


def dagger(M):
    return np.conj(np.swapaxes(M, -1, -2))


def hermitize(M):
    return 0.5 * (M + dagger(M))


def antiherm_residual(M):
    """Max pointwise ||M - M^dag|| relative to ||M|| (Frobenius)."""
    num = np.linalg.norm(M - dagger(M), axis=(-2, -1))
    den = np.linalg.norm(M, axis=(-2, -1))
    scale = max(float(np.max(den)), 1e-300)
    return float(np.max(num)) / scale


def require_hermitian(M, tol=HERM_TOL, what="matrix"):
    r = antiherm_residual(M)
    if r > tol:
        raise NotHermitianError(f"{what} is not Hermitian: residual {r:.3e} > {tol:.1e}")
    return hermitize(M)


def matrix_function(M, phi, clamp=None, tol=HERM_TOL):
    """Apply a scalar function to a Hermitian matrix (field) spectrally.

    ``M`` may carry leading grid axes. Eigenvalues are clamped from below at
    ``clamp`` when given (use for ln and fractional powers on semidefinite
    input). The identity map returns the input to round-off.
    """
    M = require_hermitian(M, tol)
    w, v = np.linalg.eigh(M)
    if clamp is not None:
        w = np.maximum(w, clamp)
    fw = phi(w)
    return hermitize(np.einsum("...ab,...b,...cb->...ac", v, fw, np.conj(v)))


def matrix_log(M, clamp=EIG_CLAMP):
    return matrix_function(M, np.log, clamp=clamp)


def matrix_exp_herm(M):
    return matrix_function(M, np.exp)


def vn_entropy_trace(M, tol=HERM_TOL):
    """-Tr(M ln M) from eigenvalues, with the 0 ln 0 = 0 convention.

    Pointwise over leading axes; negative eigenvalues above -tol are treated
    as zero (PSD round-off).
    """
    M = require_hermitian(M, tol)
    w = np.linalg.eigh(M)[0]
    w = np.where(w > EIG_CLAMP, w, 1.0)  # ln(1) = 0 kills the clamped terms
    return -np.sum(w * np.log(w), axis=-1)


def trace_field(M):
    return np.real(np.trace(M, axis1=-2, axis2=-1))


# Largest contracted dimension ``mm`` writes as component sums. numpy's
# batched ``@`` is slow on tiny matrices (about 12x slower than the sums for
# 2 x 2 at 64^2), but for 4 x 4 it is the faster of the two.
MM_SUMS_MAX = 3


def mm(A, B):
    """Matrix product of (..., n, k) and (..., k, m) fields.

    For k <= ``MM_SUMS_MAX`` each entry is the vectorised sum over the grid
    sum_c A[..., i, c] * B[..., c, j]; above that, numpy's batched ``@``.
    Leading axes broadcast as they do for ``@``.
    """
    n, k = A.shape[-2:]
    if k > MM_SUMS_MAX:
        return A @ B
    m = B.shape[-1]
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    out = np.empty(lead + (n, m), dtype=np.result_type(A, B))
    for i in range(n):
        for j in range(m):
            s = A[..., i, 0] * B[..., 0, j]
            for c in range(1, k):
                s += A[..., i, c] * B[..., c, j]
            out[..., i, j] = s
    return out


def comm(A, B):
    """Commutator field [A, B] = AB - BA."""
    return mm(A, B) - mm(B, A)


def tr_prod(A, B):
    """Field Re Tr(AB) of (..., n, k) and (..., k, n) fields: the vectorised
    sum over the grid of the n k products A[..., i, c] * B[..., c, i],
    without forming AB."""
    n, k = A.shape[-2:]
    s = A[..., 0, 0] * B[..., 0, 0]
    for i in range(n):
        for c in range(k):
            if i or c:
                s += A[..., i, c] * B[..., c, i]
    return s.real


def planar(M):
    """``M`` (..., n, m) copied into contiguous (n, m, ...) component planes,
    returned as the (..., n, m) view of that copy: the same values, with
    each component ``M[..., i, j]`` one contiguous block."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(M, (-2, -1), (0, 1))), (0, 1), (-2, -1))


# -- random smooth fields (probe generation) ---------------------------------


def random_band_limited(grid, rng, kmax=3, trailing=(), complex_valued=False):
    """Smooth random field from Fourier modes with |k| <= kmax per direction.

    Returns an array of shape grid.shape + trailing; real unless
    ``complex_valued``. Normalized to max-abs 1.
    """
    shape = trailing if isinstance(trailing, tuple) else (trailing,)
    out = np.zeros(grid.shape + shape, dtype=complex)
    kq = 2 * np.pi / grid.Lq
    kp = 2 * np.pi / grid.Lp
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            phase = np.exp(1j * (a * kq * grid.Q + b * kp * grid.P))
            out += phase[(...,) + (None,) * len(shape)] * coeff
    if not complex_valued:
        out = out.real
    return out / np.max(np.abs(out))
