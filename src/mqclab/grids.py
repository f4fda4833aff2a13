"""Discrete phase-space infrastructure.

Uniform periodic grids on ``[q0, q1) x [p0, p1)`` with 4th-order central
stencils, rectangle quadrature (exact trapezoid on a periodic grid),
periodic bicubic interpolation, the spectra of Hermitian fields and
Hermitian matrix functions via eigendecomposition.

``mm``, ``hcomm``, ``tr_prod`` and ``eigen_compose`` are the one path by which
matrix fields are contracted. For a contracted dimension n <= 3 ``mm``
writes each entry as vectorised component sums over the grid, which beats
numpy's batched ``@`` on such small matrices; for n >= 4 it falls through
to ``@``. ``tr_prod`` gives the field Re Tr(AB) as component sums without
forming AB, and ``eigen_compose`` is v diag(f) v^dag via ``mm``.

Every commutator in the package has Hermitian operands (the Hamiltonian,
densities, their gradients, the Sigma-hat terms and the derivatives of
functionals), so ``hcomm`` is its one commutator: AB - (AB)^dag, one
``mm``, exactly anti-Hermitian by construction and equal to [A, B] =
AB - BA for Hermitian A and B (within round-off of the two-product form;
numpy's complex product is not bitwise commutative).

The velocity pairing Re Tr(X R) of a Hermitian R with an X-type field has
one accumulation, fed two ways: ``pair_planes`` forms R = W W^dag of a
wave operator W (the split models, Re Tr(W^dag X W)), and
``pair_hermitian`` reads a Hermitian R as it is (a density P, rho or a
Sigma-hat term). Both read the upper triangle of R only, and each X as the
float planes ``pairing_planes`` pre-combines from it (Re X_aa, Re X_ab +
Re X_ba and Im X_ab - Im X_ba); the X of the package are X_H and its
gradients, whose planes the Hamiltonian builds once (``X_planes``,
``dX_planes``), so a split's W W^dag and a density's P meet them through
the same sums in the same order. Each set of planes comes with its static
live index (``hamiltonians.live_planes``): the accumulation multiplies only
the planes that are not identically zero, asks only for the entries of R
that a live plane reads (``live_entries``, the one rule for them:
``pair_planes`` forms no other entry of W W^dag, and a packed R holds no
other), and writes an X with no live plane as +0.0. For a Hamiltonian
with no zero plane that is every plane and every entry, summed as before.

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
(the component-major order), where a field of planes is C-contiguous. Along
p, the axis contiguous in a plane, the four shifted operands are slices of
the flat float view of the padded copy, so each difference is one long
loop, not one short padded row at a time; the windows of a row's last 4
columns run into the next row, and the scaling pass writes only the valid
columns into the result. On a (64, 64, 2, 1) complex field of planes that
took the p stencil from 0.069 to 0.060 ms (one thread of a 2-core Xeon,
numpy 2.4.6). Along q the operands are whole-plane slices already; a flat
q path measured 10-30 % slower from 128^2 up. Both axes give the bits of
the rolled stencil. Complex
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
The planes of a real field are read through its grid-last view: a field
stored as component planes (the loop tracer's velocity) is prefiltered as it
lies, without a copy; a complex one is split into real and imaginary planes.
Either layout gives the same bits. The B-spline weights are written row by
row into one array, each formula's operations in their written order.

``eigvalsh_field`` gives the ascending eigenvalues of a Hermitian field.
For 2 x 2 fields it is the closed form m -+ hypot((a - d)/2, |b|) with
m = (a + d)/2, within a few eps ||M|| of LAPACK and about 20x cheaper than a
batched ``eigvalsh`` at 64^2; other sizes call LAPACK. Every eigenvalue-only
spectrum of a grid field goes through it.

``random_band_limited`` sums C_ab exp(i(a kq q + b kp p)) over |a|, |b| <= kmax
as the separable product E_q C E_p^T, E_q[i, a] = exp(i a kq q_i): 2(2 kmax + 1)
one-dimensional exponentials, a sum over b on the small (Np, modes) side, then
2 kmax + 1 field-sized multiply-adds. C is drawn per mode, real then imaginary
part, so the generator ends where a mode-by-mode sum leaves it; the field
differs from that sum at round-off. No BLAS: on operands this small a call
under a multi-threaded pool now and then stalls for ~15 ms.

Buffers. ``partial_q``/``partial_p`` (``_diff4``), ``mm``, ``hcomm`` and
``hermitize`` take ``out=``, in either layout: the result is
written there, with the bits of a fresh result. ``mm`` sums each entry
straight into its plane of the result, so its ``out`` must not overlap the
operands. The temporaries (the stencil's padded copy and its difference
terms, each product term, AB of ``hcomm``) are
``scratch`` buffers: one reusable buffer per tag, kept across calls so that
a run's every step reuses the same memory instead of taking fresh pages
from the kernel. A scratch
buffer never leaves the function that took it: it is neither returned nor
stored, so results with ``out=None`` never share memory.

Grid arrays are indexed ``values[i, j]`` for the point
``(q0 + i*dq, p0 + j*dp)``; any trailing axes (matrix or vector components)
are carried along unchanged by the calculus operations.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# Eigenvalues below this are clamped inside ln / fractional powers; an
# entropy counts an eigenvalue at or below it as zero (0 ln 0 = 0).
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

    def __str__(self):
        return (f"{self.Nq}x{self.Np} on [{self.q0:.12g}, {self.q1:.12g}) x "
                f"[{self.p0:.12g}, {self.p1:.12g}), hbar {self.hbar:.12g}")

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
            and np.isclose(self.hbar, other.hbar, atol=0.0)
        )

    # -- calculus -----------------------------------------------------------

    def partial_q(self, values, out=None):
        """4th-order periodic central difference along q (axis 0)."""
        return _diff4(np.asarray(values), 0, self.dq, out)

    def partial_p(self, values, out=None):
        """4th-order periodic central difference along p (axis 1)."""
        return _diff4(np.asarray(values), 1, self.dp, out)

    def integrate(self, values):
        """Quadrature sum(values) * dq * dp over the first two axes.

        On a periodic grid the rectangle rule coincides with the trapezoid
        rule and is spectrally accurate for smooth periodic integrands.
        """
        return np.sum(np.asarray(values), axis=(0, 1)) * (self.dq * self.dp)

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
        q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
        x = np.empty((2,) + q.shape)  # the points in grid units
        for xk, v, v0, h in ((x[0, ...], q, self.q0, self.dq), (x[1, ...], p, self.p0, self.dp)):
            np.subtract(v, v0, out=xk)
            xk /= h
        trailing = values.shape[2:]
        planes = _grid_last(values).reshape((-1,) + self.shape)  # a view of component planes
        complex_valued = planes.dtype.kind == "c"
        if complex_valued:  # the real and imaginary parts as planes of their own
            planes = np.stack([planes.real, planes.imag], axis=1).reshape((-1,) + self.shape)
        Aq, Ap = self._spline_inverse
        coeffs = Aq @ planes @ Ap  # A_p = A_p^T
        nodes, weights = _bspline_stencil(x.reshape(2, -1), self.shape)
        flat = (nodes[:, 0] * self.Np)[:, None, :] + nodes[None, :, 1]  # (4, 4, K)
        near = np.take(coeffs.reshape(len(coeffs), -1), flat, axis=1)  # (planes, 4, 4, K)
        out = np.einsum("cabk,ak,bk->kc", near, weights[:, 0], weights[:, 1])
        if complex_valued:
            out = np.ascontiguousarray(out).view(values.dtype)
        return out.reshape(q.shape + trailing)[()]  # a numpy scalar for one plane at one point

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
    nodes = base.astype(np.intp) + np.arange(-1, 3)[:, None, None]
    nodes %= np.reshape(n, (2, 1))
    t = np.subtract(x, base, out=base)
    # the rows s^3, 4 - 6 t^2 + 3 t^3, 1 + 3 (t + t^2 - t^3) and t^3, with
    # s = 1 - t and t^2 held in rows not yet written, and t spent last
    weights = np.empty((4,) + x.shape)
    w0, w1, w2, w3 = weights
    s = np.subtract(1.0, t, out=w3)
    np.multiply(s, s, out=w0)
    w0 *= s
    t2 = np.multiply(t, t, out=w2)
    np.multiply(6.0, t2, out=w1)
    np.subtract(4.0, w1, out=w1)
    t3 = np.multiply(t2, t, out=w3)
    w2 += t
    w2 -= t3
    w2 *= 3.0
    w2 += 1.0
    w1 += np.multiply(3.0, t3, out=t)
    weights /= 6.0
    return nodes, weights


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
    along_p = axis == values.ndim - 1
    if along_p:
        # the four operands as shifts of the flat padded copy, one long loop
        # each; the 4 columns each row's window runs past are dropped below
        flat, c = ext.reshape(-1), (2 if complex_valued else 1)
        span = flat.size - 4 * c
        m2, m1, p1, p2 = (flat[s * c:s * c + span] for s in (0, 1, 3, 4))
        acc = scratch(flat.shape, flat.dtype, "diff4.acc")
        diffs, tmp = acc[:span], scratch((span,), flat.dtype, "diff4.tmp")
    else:
        m2, m1, p1, p2 = (ext[lead + (slice(s, s + n),)] for s in (0, 1, 3, 4))
        diffs, tmp = res, scratch(res.shape, res.dtype, "diff4.tmp")
    # grouped by differences so constants map to exact zero
    np.subtract(m2, p2, out=diffs)
    np.subtract(p1, m1, out=tmp)
    tmp *= 8.0
    diffs += tmp
    if along_p:  # the valid columns
        diffs = acc.reshape(ext.shape)[lead + (slice(0, n),)]
    if complex_valued:
        # numpy's own complex division by the real 12h multiplies by this
        np.multiply(diffs, 1.0 / (12.0 * h), res)
    else:
        np.divide(diffs, 12.0 * h, res)
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


def matrix_function(M, phi, clamp=None):
    """Apply a scalar function to a Hermitian matrix (field) spectrally.

    ``M`` may carry leading grid axes. Eigenvalues are clamped from below at
    ``clamp`` when given (use for ln and fractional powers on semidefinite
    input). The identity map returns the input to round-off.
    """
    M = require_hermitian(M)
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


def trace_field(M):
    """Re Tr M at every point: the real parts of the diagonal entries summed
    in order, each one plane (the first plus 0.0, as numpy's own sum begins)."""
    s = M[..., 0, 0].real + 0.0
    for i in range(1, M.shape[-1]):
        s += M[..., i, i].real
    return s


# Largest contracted dimension ``mm`` writes as component sums (every workload
# has n = 2). At 64^2 on component planes the sums win up to 12 x 12 (0.4
# against 2.4 ms for 4 x 4); on interleaved fields, as ``eigh`` returns them,
# batched ``@`` wins from 4 x 4 on (1.9 against 2.7 ms, 3.6 against 33 at 8 x 8).
MM_SUMS_MAX = 3


def mm(A, B, out=None, entries=None):
    """Matrix product of (..., n, k) and (..., k, m) fields.

    For k <= ``MM_SUMS_MAX`` each entry is the vectorised sum over the grid
    sum_c A[..., i, c] * B[..., c, j], summed straight into its plane of
    ``out`` (each term in scratch); above that, numpy's batched ``@`` on
    C-ordered copies, whose BLAS path gives the same bits for either layout.
    Leading axes broadcast as they do for ``@``. ``out`` must not overlap A
    or B, since the entries written first would be read again: a
    ``ValueError`` says so. With ``entries``, index pairs (i, j), only those
    are formed, each with its bits in the full product: ``out[..., e]`` is
    (AB)_ij of the e-th pair.
    """
    n, k = A.shape[-2:]
    m = B.shape[-1]
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    dtype = np.result_type(A, B)
    if out is None:
        out = _empty(lead + ((n, m) if entries is None else (len(entries),)), dtype,
                     _is_component_major(A, B))
    elif np.may_share_memory(out, A) or np.may_share_memory(out, B):
        raise ValueError("mm: out must not overlap A or B")
    if k > MM_SUMS_MAX:
        AB = np.matmul(np.ascontiguousarray(A), np.ascontiguousarray(B))
        out[...] = AB if entries is None else AB.reshape(AB.shape[:-2] + (-1,))[
            ..., [i * m + j for i, j in entries]]
        return out
    prod = scratch(lead, dtype, "mm.prod")
    targets = (((i, j), out[..., i, j]) for i in range(n) for j in range(m)) if entries is None \
        else zip(entries, np.moveaxis(out, -1, 0))
    for (i, j), s in targets:
        np.multiply(A[..., i, 0], B[..., 0, j], out=s)
        for c in range(1, k):
            s += np.multiply(A[..., i, c], B[..., c, j], out=prod)
    return out


def hcomm(A, B, out=None, entries=None):
    """Commutator field [A, B] of Hermitian A and B as AB - (AB)^dag, since
    then BA = (AB)^dag: one ``mm`` (in scratch) and a conjugate-transposed
    subtraction. Exactly anti-Hermitian whatever A and B are. With
    ``entries``, index pairs (a, b), only those are formed, from the entries
    of AB they read, with their bits in the full commutator: ``out[..., e]``
    is (AB)_ab - conj((AB)_ba) of the e-th pair."""
    shape, dtype = np.broadcast_shapes(A.shape, B.shape), np.result_type(A, B)
    like = A if _is_component_major(A) else B
    if entries is not None:
        pairs = sorted({p for a, b in entries for p in ((a, b), (b, a))})
        AB = mm(A, B, out=scratch(shape[:-2] + (len(pairs),), dtype, "hcomm", like=like),
                entries=pairs)
        out = np.empty_like(AB[..., :len(entries)]) if out is None else out
        for e, (a, b) in enumerate(entries):
            np.conjugate(AB[..., pairs.index((b, a))], out=out[..., e])
            np.subtract(AB[..., pairs.index((a, b))], out[..., e], out=out[..., e])
        return out
    AB = mm(A, B, out=scratch(shape, dtype, "hcomm", like=like))
    if out is None:
        out = np.empty_like(AB)
    np.conjugate(np.swapaxes(AB, -1, -2), out=out)
    return np.subtract(AB, out, out=out)


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


def pairing_planes(*Xs):
    """The (len(Xs), n^2, ...) float planes the velocity pairing Re Tr(X R)
    reads of each n x n matrix field X of ``Xs``, against a Hermitian R.

    Per X, in the order the pairing sums them: for a = 0 .. n - 1, Re X_aa,
    then for each b > a the pair Re X_ab + Re X_ba and Im X_ab - Im X_ba
    (paired with Re R_ab and Im R_ab). Exact for any square X, Hermitian
    or not.
    """
    n = Xs[0].shape[-1]
    planes = np.empty((len(Xs), n * n) + np.broadcast_shapes(*(X.shape[:-2] for X in Xs)))
    for X, out in zip(Xs, planes):
        t = 0
        for a in range(n):
            out[t] = X[..., a, a].real
            t += 1
            for b in range(a + 1, n):
                np.add(X[..., a, b].real, X[..., b, a].real, out=out[t])
                np.subtract(X[..., a, b].imag, X[..., b, a].imag, out=out[t + 1])
                t += 2
    return planes


def pair_planes(W, planes, live, out):
    """Re Tr(W^dag X W) at every grid point into ``out[k]``, for each X
    given by its pre-combined ``planes[k]`` (``pairing_planes``) with the
    live index ``live`` (``hamiltonians.live_planes``): X averaged over the
    conditional state W (a transport velocity when X is X_H). Returns
    ``out``.

    Re Tr(W^dag X W) = Re Tr(X R) with the local density R = W W^dag,
    formed once for all the X and one entry plane at a time, each entry
    with the sums of ``mm`` (R_ab = sum_c W_ac conj(W_bc)), so that R is
    exactly Hermitian, and handed to the accumulation of ``pair_hermitian``,
    which asks only for the entries a live plane reads.
    """
    m = W.shape[-1]
    lead = W.shape[:-2]
    R, conj_w = scratch(lead, complex, "pairing.R"), scratch(lead, complex, "pairing.conj")

    def entry(a, b):
        for c in range(m):
            np.conjugate(W[..., b, c], out=conj_w)
            if c == 0:
                np.multiply(W[..., a, c], conj_w, out=R)
            else:
                np.add(R, np.multiply(W[..., a, c], conj_w, out=conj_w), out=R)
        return R

    return _accumulate_pairing(entry, planes, live, out)


def pair_hermitian(R, planes, live, out, entries=None):
    """Re Tr(X R) at every grid point into ``out``, for a Hermitian field R
    (..., n, n) and each X given by its pre-combined ``planes``
    (``pairing_planes``) with the live index ``live``
    (``hamiltonians.live_planes``); returns ``out``.

    Precondition: R is exactly Hermitian (the upper triangle and the real
    diagonal are all it reads). R may carry axes between the grid and the
    matrix axes, a stack of fields (Nq, Np, s, n, n): each entry is read as
    its grid-last (s, Nq, Np) block, which broadcasts against ``planes[:,
    t]`` into ``out``, so one call pairs a stack of R with one set of
    planes (or one R with a stack of planes). A constant matrix R, given
    as (1, 1, n, n), broadcasts the same way. With ``entries``, a list of
    index pairs, R is packed: its last axis holds those entries, in that
    order, and at least those a live plane reads (``live_entries``).
    """
    R = _grid_last(R)
    if entries is None:
        return _accumulate_pairing(lambda a, b: R[..., a, b, :, :], planes, live, out)
    return _accumulate_pairing(lambda a, b: R[..., entries.index((a, b)), :, :], planes, live, out)


def live_entries(*lives):
    """The entries (a, b), a <= b in row-major order, of a Hermitian n x n R
    that a live plane of any of the live indices ``lives`` reads
    (``hamiltonians.live_planes``, one item for each of the n^2 planes),
    each mapped to the planes that read it: Re R_aa through one, R_ab off
    the diagonal through two (Re R_ab, then Im R_ab)."""
    n, t, found = math.isqrt(len(lives[0])), 0, {}
    for a in range(n):
        for b in range(a, n):
            reads = (t,) if a == b else (t, t + 1)
            t += len(reads)
            if any(live[s] for live in lives for s in reads):
                found[a, b] = reads
    return found


def _accumulate_pairing(entry, planes, live, out):
    """The sum of ``pair_planes`` and ``pair_hermitian``: the upper-triangle
    entries R_ab = ``entry(a, b)`` of a Hermitian n x n R, in row-major
    order, met with ``planes``. The real diagonal reads Re X_aa, and each
    off-diagonal pair a < b is read once, as Re R_ab (Re X_ab + Re X_ba) +
    Im R_ab (Im X_ab - Im X_ba). ``out[k]`` receives the sum over
    ``planes[k]``, against which R broadcasts.

    Only live planes are multiplied: ``live[t]`` names the k whose plane
    ``planes[k, t]`` is not identically zero. An entry that no live plane
    reads (``live_entries``) is never asked for, and a k with no live plane is written as
    +0.0. With every plane live each k sums every term, in the same order.
    """
    term = scratch(out.shape, float, "pairing.term")
    started = [False] * len(out)
    for (a, b), reads in live_entries(live).items():
        R_ab = entry(a, b)
        for s, part in zip(reads, (R_ab.real, R_ab.imag)):
            part = np.broadcast_to(part, out.shape)
            for k in live[s]:
                if started[k]:
                    acc = out[k]
                    acc += np.multiply(planes[k, s], part[k], out=term[k])
                else:
                    np.multiply(planes[k, s], part[k], out=out[k])
                    started[k] = True
    for k, written in enumerate(started):
        if not written:
            out[k] = 0.0
    return out


def eigen_compose(v, fw):
    """v diag(fw) v^dag for eigenvector columns ``v`` (..., n, n) and values
    ``fw`` (..., n), through ``mm``. Not hermitized: ``fw`` may be complex, as
    exp(i w) is for a unitary."""
    return mm(v * fw[..., None, :], dagger(v))


# -- random smooth fields (probe generation) ---------------------------------


def random_band_limited(grid, rng, kmax=3, trailing=(), complex_valued=False):
    """Smooth random field (grid.shape + trailing) of the Fourier modes |k| <= kmax
    per direction, max-abs 1; real unless ``complex_valued``."""
    shape = trailing if isinstance(trailing, tuple) else (trailing,)
    modes = np.arange(-kmax, kmax + 1)
    z = rng.standard_normal((modes.size, modes.size, 2) + shape)  # mode (a, b): re, then im
    coeff = (z[:, :, 0] + 1j * z[:, :, 1]).reshape(modes.size, modes.size, -1)  # (a, b, c)
    eq, ep = (np.exp(1j * np.outer(x, modes * (2 * np.pi / L)))
              for x, L in ((grid.q, grid.Lq), (grid.p, grid.Lp)))
    # the sum over b on the small (a, Np, c) side, then over a in rows of Np * c
    half = (ep[None, :, :, None] * coeff[:, None]).sum(axis=2).reshape(modes.size, -1)
    out = eq[:, :1] * half[0]
    for a in range(1, modes.size):
        out += eq[:, a:a + 1] * half[a]
    out = out.reshape(grid.shape + shape)
    if not complex_valued:
        out = out.real
    return out / np.max(np.abs(out))
