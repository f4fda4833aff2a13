"""Catalog of hybrid Hamiltonians H(q,p) with analytic phase-space gradients.

Kinds
-----
* ``uncoupled``      H = H_C(q,p) 1 + H_Q
* ``nanowire``       H = kinetic(p) 1 + eta p sigma_z + B sigma_x, optionally
                     with trigonometric (grid-periodic) surrogates for p
* ``pure_dephasing`` H = H_0(q,p) 1 + H_I(q,p) A, with a constant Hermitian A
* ``zeta_composed``  H = sum_k A_k zeta(q,p)^k, a matrix polynomial in a
                     single phase-space function zeta
* ``tabulated``      H given as raw grid data; gradients are numeric

Polynomial profiles (harmonic wells, bare coordinates) are discontinuous at
the periodic seam; scenarios using them must keep density mass near the seam
negligible. The ``trig_*`` surrogates are seam-free and reduce to their
polynomial counterparts near the domain center.

Static zero structure: the simple Hamiltonians have a sparse X_H = (dH_p,
-dH_q). The nanowire's H does not depend on q (X_p = 0, X_q diagonal), and
pure dephasing with a diagonal A, like the uncoupled kind, has a diagonal
X_H. A ``Hamiltonian`` records once which pairing planes of X_H and of its
gradients are identically zero (``live_planes``, the one place of that
policy) and which components of X_H are (``X_axes``); the pairing and the
transport of the right-hand sides skip what is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import PhaseGrid, component_major, hermitize, pairing_planes, require_hermitian
from .states import _fix_eigvec_phase

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class EigenvalueCrossingError(ValueError):
    """Adjacent eigenvalues of H closer than 1e-10 somewhere on the grid."""


class UnsupportedHamiltonianError(ValueError):
    """Requested an operation outside the catalog's analytic cases."""


@dataclass
class ScalarProfile:
    """Scalar function on the grid with analytic gradient components."""

    name: str
    values: np.ndarray
    d_q: np.ndarray
    d_p: np.ndarray


PROFILES = ("zero", "constant", "harmonic", "trig_well", "quadratic_p", "trig_kinetic_p",
            "coordinate_q", "coordinate_p", "trig_p", "trig_q", "sin_q", "cos_q", "sin_p",
            "cos_p", "sin2_well")


def scalar_profile(grid: PhaseGrid, name: str, amplitude=1.0, center=None, mode=1, omega=1.0,
                   mass=1.0) -> ScalarProfile:
    """Build a named scalar profile, one of ``PROFILES``; see the module
    docstring for seam caveats. ``center`` defaults to the domain center."""
    Q, P = grid.Q, grid.P
    zeros = np.zeros(grid.shape)
    amp = amplitude
    qc, pc = center or (0.5 * (grid.q0 + grid.q1), 0.5 * (grid.p0 + grid.p1))
    kq = 2 * np.pi * mode / grid.Lq
    kp = 2 * np.pi * mode / grid.Lp

    if name == "zero":
        return ScalarProfile(name, zeros, zeros, zeros)
    if name == "constant":
        return ScalarProfile(name, amp * np.ones(grid.shape), zeros, zeros)
    if name == "harmonic":
        v = 0.5 * omega**2 * ((Q - qc) ** 2 + (P - pc) ** 2)
        return ScalarProfile(name, amp * v, amp * omega**2 * (Q - qc), amp * omega**2 * (P - pc))
    if name == "trig_well":
        # 2(1 - cos)/k^2 ~ x^2 near the center; periodic harmonic surrogate
        v = (1 - np.cos(kq * (Q - qc))) / kq**2 + (1 - np.cos(kp * (P - pc))) / kp**2
        dq = np.sin(kq * (Q - qc)) / kq
        dp = np.sin(kp * (P - pc)) / kp
        s = amp * omega**2
        return ScalarProfile(name, s * v, s * dq, s * dp)
    if name == "quadratic_p":
        return ScalarProfile(name, 0.5 * (P - pc) ** 2 / mass, zeros, (P - pc) / mass)
    if name == "trig_kinetic_p":
        v = (1 - np.cos(kp * (P - pc))) / (mass * kp**2)
        return ScalarProfile(name, v, zeros, np.sin(kp * (P - pc)) / (mass * kp))
    if name == "coordinate_q":
        return ScalarProfile(name, amp * Q, amp * np.ones(grid.shape), zeros)
    if name == "coordinate_p":
        return ScalarProfile(name, amp * P, zeros, amp * np.ones(grid.shape))
    if name == "trig_p":
        # periodic surrogate of the bare coordinate p - pc
        return ScalarProfile(name, amp * np.sin(kp * (P - pc)) / kp, zeros, amp * np.cos(kp * (P - pc)))
    if name == "trig_q":
        return ScalarProfile(name, amp * np.sin(kq * (Q - qc)) / kq, amp * np.cos(kq * (Q - qc)), zeros)
    if name == "sin_q":
        return ScalarProfile(name, amp * np.sin(kq * (Q - qc)), amp * kq * np.cos(kq * (Q - qc)), zeros)
    if name == "cos_q":
        return ScalarProfile(name, amp * np.cos(kq * (Q - qc)), -amp * kq * np.sin(kq * (Q - qc)), zeros)
    if name == "sin_p":
        return ScalarProfile(name, amp * np.sin(kp * (P - pc)), zeros, amp * kp * np.cos(kp * (P - pc)))
    if name == "cos_p":
        return ScalarProfile(name, amp * np.cos(kp * (P - pc)), zeros, -amp * kp * np.sin(kp * (P - pc)))
    if name == "sin2_well":
        v = np.sin(kq * (Q - qc)) ** 2 + np.sin(kp * (P - pc)) ** 2
        dq = kq * np.sin(2 * kq * (Q - qc))
        dp = kp * np.sin(2 * kp * (P - pc))
        return ScalarProfile(name, amp * v, amp * dq, amp * dp)
    raise UnsupportedHamiltonianError(f"unknown scalar profile '{name}'")


@dataclass
class Hamiltonian:
    """Hybrid Hamiltonian sampled on a grid, with its phase-space gradient.

    ``X_q = dH_p`` and ``X_p = -dH_q`` are the components of the hybrid
    Hamiltonian vector field, each an n x n Hermitian matrix field.

    H, dH_q, dH_p and X_p are stored as contiguous component planes
    (``grids.component_major``), converted once here from whatever layout
    the builder made, so the component sums of ``grids`` read each matrix
    entry as one contiguous plane.

    ``X_planes`` holds X_q and X_p as the pre-combined float planes the
    velocity pairing reads (``grids.pairing_planes``): every pairing with
    X_H in the package (the right-hand sides, the conditional Gibbs
    gradient, a split's velocity) reads them, so none re-forms them from
    strided real and imaginary parts. They are built on first use by any
    pairing, not here, so a Hamiltonian that pairs nothing
    (``casimir-check``'s) never pays for them.

    ``dX_planes`` holds the stencil gradients of X_H the same way, built on
    first use by any pairing with them (the beyond model's right-hand side
    pairs the Sigma-hat terms against them): the (2, n^2, 2, Nq, Np) planes
    whose [k, :, j] are those of d_j X_k, for k, j = q, p. So one call of
    ``grids.pair_hermitian`` on the stacked (Sigma_q, Sigma_p) gives every
    Re Tr(Sigma_j d_j X_k).

    Beside each set of planes the Hamiltonian records, once, which of them
    are identically zero (``X_live``, ``dX_live``: see ``live_planes``), and
    in ``X_axes`` the components of X_H that are not (see the module
    docstring). The index is read from the planes, not from the kind, so a
    Hamiltonian with no zero plane pairs every plane.
    """

    grid: PhaseGrid
    kind: str
    H: np.ndarray
    dH_q: np.ndarray
    dH_p: np.ndarray
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.H, self.dH_q, self.dH_p = (component_major(np.asarray(F, dtype=complex))
                                        for F in (self.H, self.dH_q, self.dH_p))
        self.H = require_hermitian(self.H, 1e-12, "Hamiltonian")
        self.dH_q, self.dH_p = hermitize(self.dH_q), hermitize(self.dH_p)
        self._X_p = component_major(-self.dH_q)  # once: the right-hand sides read it

    @property
    def n(self):
        return self.H.shape[-1]

    @property
    def X_q(self):
        return self.dH_p

    @property
    def X_p(self):
        return self._X_p

    @cached_property
    def X_planes(self):
        """X_q and X_p as the (2, n^2, Nq, Np) planes of ``pairing_planes``."""
        return pairing_planes(self.X_q, self.X_p)

    @cached_property
    def dX_planes(self):
        """d_q X_H and d_p X_H as the (2, n^2, 2, Nq, Np) planes of
        ``pairing_planes``: [k, :, j] are those of d_j X_k."""
        grid = self.grid
        return pairing_planes(*(np.stack([grid.partial_q(X), grid.partial_p(X)])
                                for X in (self.X_q, self.X_p)))

    @cached_property
    def X_live(self):
        """The live index of ``X_planes`` (``live_planes``)."""
        return live_planes(self.X_planes)

    @cached_property
    def dX_live(self):
        """The live index of ``dX_planes`` (``live_planes``)."""
        return live_planes(self.dX_planes)

    @cached_property
    def X_axes(self):
        """The phase-space axes k (0 = q, 1 = p) whose component X_k of X_H
        is not identically zero: the only axes along which the pairing
        velocity Re Tr(R X_H) can transport."""
        return tuple(k for k in range(2) if any(k in ks for ks in self.X_live))


def live_planes(planes):
    """The static zero structure of pairing planes (K, T, ...): for each
    plane index t, the tuple of the k whose plane ``planes[k, t]`` is not
    identically zero (a nan counts as not zero). The one place the package
    decides which planes the pairing (``grids._accumulate_pairing``) may
    skip."""
    return tuple(tuple(k for k in range(len(planes)) if np.any(planes[k, t]))
                 for t in range(planes.shape[1]))


def _scalar_times(field2d, mat):
    return field2d[..., None, None] * mat


def uncoupled(grid, h_c: ScalarProfile, H_Q) -> Hamiltonian:
    H_Q = require_hermitian(np.asarray(H_Q, dtype=complex), what="H_Q")
    n = H_Q.shape[-1]
    eye = np.eye(n, dtype=complex)
    H = _scalar_times(h_c.values, eye) + H_Q
    return Hamiltonian(grid, "uncoupled", H, _scalar_times(h_c.d_q, eye),
                       _scalar_times(h_c.d_p, eye), extras={"h_c": h_c, "H_Q": H_Q})


def nanowire(grid, mass=1.0, eta=0.5, B=0.3, trig=True, center_p=None) -> Hamiltonian:
    """H = kinetic(p) 1 + eta p sigma_z + B sigma_x (quantum-nanowire form).

    With ``trig=True`` the momentum enters through grid-periodic surrogates:
    kinetic = (1 - cos k(p-pc)) / (m k^2) and p -> sin(k(p-pc))/k with
    k = 2 pi / Lp, which match p^2/2m and p near the domain center.
    """
    pc = 0.5 * (grid.p0 + grid.p1) if center_p is None else center_p
    eye = np.eye(2, dtype=complex)
    if trig:
        kin = scalar_profile(grid, "trig_kinetic_p", mass=mass, center=(0.0, pc))
        pvar = scalar_profile(grid, "trig_p", center=(0.0, pc))
    else:
        kin = scalar_profile(grid, "quadratic_p", mass=mass, center=(0.0, pc))
        pvar = scalar_profile(grid, "coordinate_p")
        pvar = ScalarProfile("coordinate_p", pvar.values - pc, pvar.d_q, pvar.d_p)
    H = _scalar_times(kin.values, eye) + eta * _scalar_times(pvar.values, SIGMA_Z) + B * SIGMA_X
    dH_q = np.zeros_like(H)
    dH_p = _scalar_times(kin.d_p, eye) + eta * _scalar_times(pvar.d_p, SIGMA_Z)
    return Hamiltonian(grid, "nanowire", H, dH_q, dH_p)


def pure_dephasing(grid, h_0: ScalarProfile, h_i: ScalarProfile, A) -> Hamiltonian:
    """H = H_0 1 + H_I A with a constant Hermitian quantum operator A."""
    A = require_hermitian(np.asarray(A, dtype=complex), what="A")
    n = A.shape[-1]
    eye = np.eye(n, dtype=complex)
    H = _scalar_times(h_0.values, eye) + _scalar_times(h_i.values, A)
    dH_q = _scalar_times(h_0.d_q, eye) + _scalar_times(h_i.d_q, A)
    dH_p = _scalar_times(h_0.d_p, eye) + _scalar_times(h_i.d_p, A)
    return Hamiltonian(grid, "pure_dephasing", H, dH_q, dH_p,
                       extras={"h_0": h_0, "h_i": h_i, "A": A})


def zeta_composed(grid, zeta: ScalarProfile, coeffs) -> Hamiltonian:
    """H = sum_k A_k zeta^k and dH = (sum_k k A_k zeta^(k-1)) grad(zeta)."""
    coeffs = [require_hermitian(np.asarray(c, dtype=complex), what=f"A_{k}") for k, c in enumerate(coeffs)]
    n = coeffs[0].shape[-1]
    z = zeta.values
    H = np.zeros(grid.shape + (n, n), dtype=complex)
    dHdz = np.zeros_like(H)
    for k, A_k in enumerate(coeffs):
        H += (z**k)[..., None, None] * A_k
        if k >= 1:
            dHdz += (k * z ** (k - 1))[..., None, None] * A_k
    return Hamiltonian(grid, "zeta_composed", H, zeta.d_q[..., None, None] * dHdz,
                       zeta.d_p[..., None, None] * dHdz, extras={"zeta": zeta, "coeffs": coeffs})


def tabulated(grid, H) -> Hamiltonian:
    """Raw grid data; gradients fall back to the 4th-order stencil."""
    H = np.asarray(H, dtype=complex)
    return Hamiltonian(grid, "tabulated", H, grid.partial_q(H), grid.partial_p(H))


# -- pointwise eigen-structure -------------------------------------------------


@dataclass
class Eigenfields:
    """Pointwise spectral data of a Hamiltonian field with a smoothed gauge."""

    E: np.ndarray          # (Nq, Np, n) ascending eigenvalues
    V: np.ndarray          # (Nq, Np, n, n) eigenvector columns

    def state(self, branch):
        return self.V[..., :, branch]

    def energy(self, branch):
        return self.E[..., branch]


def eigenfields(ham: Hamiltonian) -> Eigenfields:
    """Eigen-decompose H(q,p) pointwise with a smooth gauge.

    Eigenvalues ascend; each eigenvector is seeded at the grid origin with a
    real-positive leading component and then phase-aligned to its neighbor
    (previous point in q along the first row, previous point in p elsewhere),
    which maximizes the neighbor overlap. The one crossing rule: adjacent
    eigenvalues closer than 1e-10 anywhere leave the branches undefined and
    raise ``EigenvalueCrossingError``.
    """
    w, v = np.linalg.eigh(ham.H)
    gap = float(np.min(np.diff(w, axis=-1), initial=np.inf))
    if gap < 1e-10:
        raise EigenvalueCrossingError(f"eigenvalue crossing on the grid (smallest gap {gap:.3e}): "
                                      "the branch eigenfields are ill-defined")

    v = v.copy()
    v[0, 0] = _fix_eigvec_phase(v[0, 0])
    Nq = v.shape[0]
    for i in range(1, Nq):  # first row, march in q
        v[i, 0] = _align(v[i - 1, 0], v[i, 0])
    Np = v.shape[1]
    for j in range(1, Np):  # every column, march in p (vectorized over q)
        v[:, j] = _align(v[:, j - 1], v[:, j])
    return Eigenfields(w, v)


def _align(v_ref, v):
    ov = np.sum(np.conj(v_ref) * v, axis=-2)
    mag = np.abs(ov)
    phase = np.where(mag > 1e-12, ov / np.where(mag > 0, mag, 1.0), 1.0)
    return v * np.conj(phase)[..., None, :]


# each kind's constructor; a spec names its keyword arguments
_CONSTRUCTORS = {"uncoupled": uncoupled, "nanowire": nanowire, "pure_dephasing": pure_dephasing,
                 "zeta_composed": zeta_composed, "tabulated": tabulated}
KINDS = tuple(_CONSTRUCTORS)


def build(grid: PhaseGrid, spec: dict) -> Hamiltonian:
    """Construct the Hamiltonian of ``spec["kind"]`` from typed arguments:
    each profile a mapping of ``scalar_profile`` arguments, each quantum
    operator an array (``config`` reads a scenario into this form)."""
    kind = spec["kind"]
    if kind not in KINDS:
        raise UnsupportedHamiltonianError(f"unknown hamiltonian kind '{kind}'")
    return _CONSTRUCTORS[kind](grid, **{
        key: scalar_profile(grid, **value) if isinstance(value, dict) else value
        for key, value in spec.items() if key != "kind"})
