"""Discrete phase-space infrastructure.

Uniform periodic grids on ``[q0, q1) x [p0, p1)`` with 4th-order central
stencils, rectangle quadrature (exact trapezoid on a periodic grid), the
canonical Poisson bracket, periodic bicubic interpolation, the spectra of
Hermitian fields and Hermitian matrix functions via eigendecomposition.

``mm``, ``comm`` ([A, B] = AB - BA), ``tr_prod`` and ``eigen_compose`` are the
one path by which matrix fields are contracted. For a contracted dimension
n <= 3 ``mm`` writes each entry as vectorised component sums over the grid,
which beats numpy's batched ``@`` on such small matrices; for n >= 4 it
falls through to ``@``. ``tr_prod`` gives the field Re Tr(AB) as component
sums without forming AB, and ``eigen_compose`` is v diag(f) v^dag via ``mm``.

Layout. A field with trailing axes (a matrix or vector field) is stored as
contiguous component planes: ``component_major`` keeps it as one C-ordered
(..., Nq, Np) array behind the usual (Nq, Np, ...) view, so each component
``M[:, :, i, j]`` the sums read is one contiguous plane, not a strided walk
over interleaved (Nq, Np, n, n) memory. Fields are converted once, where
they enter: the state constructors and the Hamiltonian. Every kernel reads
either layout and gives the same bits on both; each array it allocates
(results with ``out=None``, scratch buffers) takes the layout of its input,
so planes stay planes. Only speed depends on the layout.

The stencils difference a complex field on its float view (real and
imaginary parts as a trailing axis of 2), taken on the grid-last transpose
(the component-major order), where a field of planes is C-contiguous. Complex
sums act on the two parts apart. numpy scales a complex by a real c as
c*re - 0*im and divides it by c as (re + im*0) * (1/c); for finite parts
these are c*re and re * (1/c), so the float view, multiplied by 1/(12h),
gives the same bits with a fraction of the arithmetic. Only a zero part may
come out with the other sign, and an infinite part no longer makes its
partner nan.

``interpolate`` evaluates the periodic cubic B-spline interpolant through
the nodes (order 3, wrapped at the grid period). Node values are the spline
coefficients smoothed by the periodic stencil [1, 4, 1]/6; its inverse is
a dense symmetric circulant matrix A per axis, built once per grid from
the reciprocal of the stencil's symbol, 6 / (4 + 2 cos(2 pi k / N)). Each
plane f is prefiltered as A_q f A_p, and each point then sums the 4 x 4
coefficients around it, gathered by one ``np.take`` on flat indices, with
the cubic B-spline weights. The dense prefilter costs O(N^3) per call: on
two 64^2 planes it is about 4x faster than an FFT or a recursive spline
filter, at 256^2 all three take about 4 ms, and above that it falls behind.

``eigvalsh_field`` gives the ascending eigenvalues of a Hermitian field.
For 2 x 2 fields it is the closed form m -+ hypot((a - d)/2, |b|) with
m = (a + d)/2, within a few eps ||M|| of LAPACK and about 20x cheaper than a
batched ``eigvalsh`` at 64^2; other sizes call LAPACK. Every eigenvalue-only
spectrum of a grid field goes through it.

Buffers. ``partial_q``/``partial_p`` (``_diff4``), ``mm``, ``comm`` and
``hermitize`` take ``out=``, in either layout: the result is written there,
with the bits of a fresh result. ``mm`` sums each entry straight into its
plane of the result, so its ``out`` must not overlap the operands. The
temporaries (the stencil's padded copy and its 8(p1 - m1) term, each
product term, BA of a commutator) are ``scratch`` buffers: one reusable
buffer per tag, kept across calls so that a run's every step reuses the
same memory instead of taking fresh pages from the kernel. A scratch
buffer never leaves the function that took it: it is neither returned nor
stored, so results with ``out=None`` never share memory.

Grid arrays are indexed ``values[i, j]`` for the point
``(q0 + i*dq, p0 + j*dp)``; any trailing axes (matrix or vector components)
are carried along unchanged by the calculus operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenvalues below this are clamped inside ln / fractional powers; entropy
# traces use the 0*ln(0) = 0 convention instead.
EIG_CLAMP = 1e-14

HERM_TOL = 1e-12

# Points per direction the 4th-order stencils need at least.
MIN_POINTS = 8


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

    # -- calculus -----------------------------------------------------------

    def partial_q(self, values, out=None):
        """4th-order periodic central difference along q (axis 0)."""
        return _diff4(np.asarray(values), 0, self.dq, out)

    def partial_p(self, values, out=None):
        """4th-order periodic central difference along p (axis 1)."""
        return _diff4(np.asarray(values), 1, self.dp, out)

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

        The interpolant is the periodic cubic B-spline through the nodes:
        each plane is prefiltered to its spline coefficients and the 4 x 4
        coefficients around each point are summed with the cubic B-spline
        weights (see the module docstring). Works for real or complex
        ``values`` with arbitrary trailing axes; q and p may be scalars or
        arrays (broadcast together).
        """
        values = np.asarray(values)
        iq, ip = np.broadcast_arrays((np.asarray(q, dtype=float) - self.q0) / self.dq,
                                     (np.asarray(p, dtype=float) - self.p0) / self.dp)
        pts_shape, trailing = iq.shape, values.shape[2:]
        planes = np.ascontiguousarray(values.reshape(self.shape + (-1,)))
        complex_valued = planes.dtype.kind == "c"
        if complex_valued:  # the real and imaginary parts as planes of their own
            planes = planes.view(planes.real.dtype)
        Aq, Ap = self._spline_inverse
        coeffs = Aq @ np.moveaxis(planes, -1, 0) @ Ap  # A_p = A_p^T
        nodes, weights = _bspline_stencil(np.stack([iq.ravel(), ip.ravel()]), self.shape)
        flat = (nodes[:, 0] * self.Np)[:, None, :] + nodes[None, :, 1]  # (4, 4, K)
        near = np.take(coeffs.reshape(len(coeffs), -1), flat, axis=1)  # (planes, 4, 4, K)
        out = np.einsum("cabk,ak,bk->kc", near, weights[:, 0], weights[:, 1])
        if complex_valued:
            out = np.ascontiguousarray(out).view(values.dtype)
        return out.reshape(pts_shape + trailing)[()]  # a numpy scalar for one plane at one point

    @cached_property
    def _spline_inverse(self):
        """(A_q, A_p): the inverses of the periodic [1, 4, 1]/6 stencil, which
        maps spline coefficients to node values, one per axis."""
        return _circulant_inverse(self.Nq), _circulant_inverse(self.Np)


def _circulant_inverse(n):
    """Dense inverse of the periodic n x n stencil [1, 4, 1]/6, from the
    reciprocal of its symbol (4 + 2 cos(2 pi k / n)) / 6; symmetric."""
    column = np.fft.ifft(6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))).real
    return column[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def _bspline_stencil(x, n):
    """For points ``x`` (2, K) in grid units, the indices (4, 2, K) of the
    nodes floor(x) - 1 .. floor(x) + 2, wrapped by the node counts ``n`` of
    the two axes, and the cubic B-spline weights (4, 2, K) they carry."""
    base = np.floor(x)
    t = x - base
    s = 1.0 - t
    t2 = t * t
    t3 = t2 * t
    weights = np.stack([s * s * s, 4.0 - 6.0 * t2 + 3.0 * t3, 1.0 + 3.0 * (t + t2 - t3), t3])
    weights /= 6.0
    nodes = base.astype(np.intp) + np.arange(-1, 3)[:, None, None]
    return nodes % np.reshape(n, (2, 1)), weights


def _diff4(values, axis, h, out=None):
    # one copy wrapped by two points on each side, read through four slices;
    # all on the grid-last transpose, where the padded copy is C-contiguous
    dtype = np.result_type(values, 1.0)
    if out is None:
        out = np.empty_like(values, dtype=dtype)
    values, res = _grid_last(values), _grid_last(out)
    axis += values.ndim - 2
    n = values.shape[axis]
    lead = (slice(None),) * axis
    ext = scratch(values.shape[:axis] + (n + 4,) + values.shape[axis + 1:], dtype, "diff4.ext")
    ext[lead + (slice(2, n + 2),)] = values
    ext[lead + (slice(0, 2),)] = values[lead + (slice(n - 2, n),)]
    ext[lead + (slice(n + 2, n + 4),)] = values[lead + (slice(0, 2),)]
    complex_valued = dtype.kind == "c"
    if complex_valued:
        # the same bits on the float view (see the module docstring)
        ext, res = _float_view(ext), _float_view(res)
    m2, m1, p1, p2 = (ext[lead + (slice(s, s + n),)] for s in (0, 1, 3, 4))
    # grouped by differences so constants map to exact zero
    np.subtract(m2, p2, out=res)
    tmp = np.subtract(p1, m1, out=scratch(res.shape, res.dtype, "diff4.tmp"))
    tmp *= 8.0
    res += tmp
    if complex_valued:
        # numpy's own complex division by the real 12h multiplies by this
        res *= 1.0 / (12.0 * h)
    else:
        res /= 12.0 * h
    return out


def _grid_last(a):
    """The field ``a`` (Nq, Np, ...) transposed to (..., Nq, Np), a view: C-contiguous
    when ``a`` is stored as component planes."""
    return a.transpose(tuple(range(2, a.ndim)) + (0, 1))


def _grid_first(a):
    """The inverse of ``_grid_last``: (..., Nq, Np) as the (Nq, Np, ...) view."""
    return a.transpose((a.ndim - 2, a.ndim - 1) + tuple(range(a.ndim - 2)))


def component_major(M):
    """The field ``M`` (Nq, Np, ...) stored as contiguous (..., Nq, Np) component
    planes, returned as the (Nq, Np, ...) view of that storage: the same values,
    each component ``M[:, :, i, ...]`` one contiguous plane. Any number of trailing
    axes; no copy when ``M`` is stored so already."""
    return _grid_first(np.ascontiguousarray(_grid_last(np.asarray(M))))


def _is_component_major(*arrays):
    """Whether any of ``arrays`` is a field stored as component planes: the layout
    an array allocated for their result takes."""
    return any(a.ndim > 2 and _grid_last(a).flags.c_contiguous for a in arrays)


def _empty(shape, dtype, planes):
    """An uninitialised field of ``shape``, as component planes when ``planes``."""
    return _grid_first(np.empty(shape[2:] + shape[:2], dtype)) if planes else np.empty(shape, dtype)


def _float_view(z):
    """The complex array ``z`` as the float array z.shape + (2,) of its real and
    imaginary parts, a view of any layout."""
    if z.flags.c_contiguous:
        return z.view(z.real.dtype).reshape(z.shape + (2,))
    re = z.real
    return np.lib.stride_tricks.as_strided(re, z.shape + (2,), re.strides + (re.itemsize,))


# Largest total size the scratch buffers may reach before they are all let go.
SCRATCH_MAX_BYTES = 64 << 20

_scratch = {}  # tag -> its one byte buffer, grown to the largest size asked
_views = {}    # (shape, dtype, tag, planes) -> a view of that buffer


def scratch(shape, dtype, tag, like=None):
    """A reusable buffer of ``shape`` and ``dtype``: a view of the one buffer
    kept under ``tag``, so the same tag at another shape or dtype shares it.
    It takes the layout of the field ``like`` (component planes or not), and
    is C-ordered without it.

    Its contents are whatever its last user left. A caller uses it only
    until it returns: a scratch buffer is never returned nor stored, and
    each buffer a function holds at once has a tag of its own (its name),
    distinct from those of the functions it calls. Past
    ``SCRATCH_MAX_BYTES`` in all, every buffer is let go and the next calls
    allocate afresh.
    """
    planes = like is not None and _is_component_major(like)
    key = (shape, dtype, tag, planes)
    view = _views.get(key)
    if view is None:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        base = _scratch.get(tag)
        if base is None or base.nbytes < nbytes:
            for stale in [k for k in _views if k[2] == tag]:
                del _views[stale]
            _scratch.pop(tag, None)
            if nbytes + sum(b.nbytes for b in _scratch.values()) > SCRATCH_MAX_BYTES:
                _scratch.clear()
                _views.clear()
            base = _scratch[tag] = np.empty(nbytes, np.uint8)
        view = base[:nbytes].view(dtype)
        view = _views[key] = (_grid_first(view.reshape(shape[2:] + shape[:2])) if planes
                              else view.reshape(shape))
    return view


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


def hermitize(M, out=None):
    """(M^dag + M) / 2, formed in ``out`` (which must not overlap M)."""
    M = np.asarray(M)
    if out is None:
        out = np.empty_like(M, dtype=np.result_type(M, 0.5))
    np.conjugate(np.swapaxes(M, -1, -2), out=out)
    out += M
    out *= 0.5
    return out


def frobenius_norm(M):
    """Pointwise Frobenius norm sqrt(sum_ij |M_ij|^2) of a (..., n, m) field.

    Each |M_ij|^2 = Re(conj(M_ij) M_ij) is formed one entry plane at a time
    and summed in row-major entry order, so the bits do not depend on the
    layout, as those of ``np.linalg.norm(M, axis=(-2, -1))`` do from 3 x 3 on
    (it sums in memory order). Up to 2 x 2 they are its bits on interleaved
    input.
    """
    M = np.asarray(M)
    term = np.empty(M.shape[:-2], np.result_type(M, 1.0))
    total = np.zeros(M.shape[:-2])  # 0 + |M_00|^2 is |M_00|^2: no bit moves
    for i, j in np.ndindex(M.shape[-2:]):
        np.conjugate(M[..., i, j], out=term)
        term *= M[..., i, j]
        total += term.real
    return np.sqrt(total, out=total)


def antiherm_residual(M):
    """Max pointwise ||M - M^dag|| relative to ||M|| (Frobenius)."""
    num = frobenius_norm(M - dagger(M))
    den = frobenius_norm(M)
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
    return hermitize(eigen_compose(v, phi(w)))


def eigvalsh_field(M):
    """Ascending eigenvalues of a Hermitian (..., n, n) field, read from its
    diagonal and lower triangle as LAPACK reads them.

    For n = 2 the closed form m -+ hypot((a - d)/2, |b|), with m = (a + d)/2
    the mean of the diagonal entries a, d and b = M[..., 1, 0]; it agrees
    with LAPACK within a few eps ||M|| at a fraction of the cost of a
    batched call. Every other n is LAPACK's ``eigvalsh``.
    """
    if M.shape[-1] != 2:
        return np.linalg.eigvalsh(M)
    a, d = M[..., 0, 0].real, M[..., 1, 1].real
    mean = 0.5 * a + 0.5 * d  # halved first: finite for any finite a, d
    radius = np.hypot(0.5 * a - 0.5 * d, np.abs(M[..., 1, 0]))
    return np.stack([mean - radius, mean + radius], axis=-1)


def vn_entropy_trace(M, tol=HERM_TOL):
    """-Tr(M ln M) from eigenvalues, with the 0 ln 0 = 0 convention.

    Pointwise over leading axes; negative eigenvalues above -tol are treated
    as zero (PSD round-off).
    """
    M = require_hermitian(M, tol)
    w = eigvalsh_field(M)
    w = np.where(w > EIG_CLAMP, w, 1.0)  # ln(1) = 0 kills the clamped terms
    return -np.sum(w * np.log(w), axis=-1)


def trace_field(M):
    """Re Tr M at every point: the real parts of the diagonal entries summed
    in order, each one plane (the first plus 0.0, as numpy's own sum begins)."""
    s = M[..., 0, 0].real + 0.0
    for i in range(1, M.shape[-1]):
        s += M[..., i, i].real
    return s


# Largest contracted dimension ``mm`` writes as component sums. numpy's
# batched ``@`` is slow on tiny matrices (about 12x slower than the sums for
# 2 x 2 at 64^2), but for 4 x 4 it is the faster of the two.
MM_SUMS_MAX = 3


def mm(A, B, out=None):
    """Matrix product of (..., n, k) and (..., k, m) fields.

    For k <= ``MM_SUMS_MAX`` each entry is the vectorised sum over the grid
    sum_c A[..., i, c] * B[..., c, j], summed straight into its plane of
    ``out`` (each term in scratch); above that, numpy's batched ``@`` on
    C-ordered copies, whose BLAS path gives the same bits for either layout.
    Leading axes broadcast as they do for ``@``. ``out`` must not overlap A
    or B, since the entries written first would be read again: a
    ``ValueError`` says so.
    """
    n, k = A.shape[-2:]
    m = B.shape[-1]
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    dtype = np.result_type(A, B)
    if out is None:
        out = _empty(lead + (n, m), dtype, _is_component_major(A, B))
    elif np.may_share_memory(out, A) or np.may_share_memory(out, B):
        raise ValueError("mm: out must not overlap A or B")
    if k > MM_SUMS_MAX:
        out[...] = np.matmul(np.ascontiguousarray(A), np.ascontiguousarray(B))
        return out
    prod = scratch(lead, dtype, "mm.prod")
    for i in range(n):
        for j in range(m):
            s = out[..., i, j]
            np.multiply(A[..., i, 0], B[..., 0, j], out=s)
            for c in range(1, k):
                s += np.multiply(A[..., i, c], B[..., c, j], out=prod)
    return out


def comm(A, B, out=None):
    """Commutator field [A, B] = AB - BA, with BA formed in scratch."""
    AB = mm(A, B, out=out)
    AB -= mm(B, A, out=scratch(AB.shape, AB.dtype, "comm", like=AB))
    return AB


def tr_prod(A, B):
    """Field Re Tr(AB) of (..., n, k) and (..., k, n) fields: the vectorised
    sum over the grid of the n k products A[..., i, c] * B[..., c, i],
    without forming AB (each product in scratch)."""
    n, k = A.shape[-2:]
    s = A[..., 0, 0] * B[..., 0, 0]
    prod = scratch(s.shape, s.dtype, "tr_prod")
    for i in range(n):
        for c in range(k):
            if i or c:
                s += np.multiply(A[..., i, c], B[..., c, i], out=prod)
    return s.real


def eigen_compose(v, fw):
    """v diag(fw) v^dag for eigenvector columns ``v`` (..., n, n) and values
    ``fw`` (..., n), through ``mm``. Not hermitized: ``fw`` may be complex, as
    exp(i w) is for a unitary."""
    return mm(v * fw[..., None, :], dagger(v))


# -- random smooth fields (probe generation) ---------------------------------


def random_band_limited(grid, rng, kmax=3, trailing=(), complex_valued=False):
    """Smooth random field from Fourier modes with |k| <= kmax per direction.

    Returns an array of shape grid.shape + trailing; real unless
    ``complex_valued``. Normalized to max-abs 1.
    """
    shape = trailing if isinstance(trailing, tuple) else (trailing,)
    out = np.zeros(grid.shape + shape, dtype=complex)
    # one buffer for every mode's term: a fresh field-sized temporary per mode
    # can be handed back to the kernel on free and faulted in again
    term = np.empty_like(out)
    kq = 2 * np.pi / grid.Lq
    kp = 2 * np.pi / grid.Lp
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            phase = np.exp(1j * (a * kq * grid.Q + b * kp * grid.P))
            out += np.multiply(phase[(...,) + (None,) * len(shape)], coeff, out=term)
    if not complex_valued:
        out = out.real
    return out / np.max(np.abs(out))
