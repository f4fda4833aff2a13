"""Properties of the grid-field kernels: the matrix-field product, the
Hermitian commutator, the trace of a product, the
eigen-composition, the closed-form 2 x 2 spectrum, the velocity pairing
(of a wave operator and of a Hermitian field), the split right-hand side,
the periodic stencil and the conservative divergence; that every kernel and
right-hand side gives the same bits on component planes and on interleaved
fields, and that the Hamiltonian and the states hold component planes; that
the density right-hand sides read only the Hermitian part of P; and that
the kernels stay the package's one contraction path, with one commutator,
one velocity pairing, one speed rule and one vacuum policy."""

import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mqclab
from mqclab import grids
from mqclab import (SIGMA_Z, PhaseGrid, nanowire, pure_dephasing, scalar_profile, tabulated,
                    uncoupled)
from mqclab.dynamics import (MODELS, StepperConfig, beyond_ehrenfest_rhs, cfl_dt, ehrenfest_rhs,
                             energy_of, max_speed, mean_field_rhs, rk4_run, uhlmann_rhs)
from mqclab.grids import (MM_SUMS_MAX, _diff4, antiherm_residual, component_major, dagger,
                          eigen_compose, eigvalsh_field, frobenius_norm, hcomm, hermitize,
                          live_entries, mm, pair_hermitian, pair_planes, pairing_planes, tr_prod,
                          trace_field)
from mqclab.hamiltonians import live_planes
from mqclab.states import vacuum_floor
from oracles import (beyond_ehrenfest_rhs_formula, beyond_energy_formula, ehrenfest_rhs_formula,
                     mean_field_rhs_formula)

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


def pairing(W, *Xs):
    """Re Tr(W^dag X W) of each X of ``Xs`` (one array per X, a single X gives
    its array alone): ``pair_planes`` on the ``pairing_planes`` of ``Xs``."""
    planes = pairing_planes(*Xs)
    velocities = pair_planes(W, planes, live_planes(planes), np.empty((len(Xs),) + W.shape[:-2]))
    return velocities[0] if len(Xs) == 1 else tuple(velocities)


@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), complex_valued=st.booleans(), seed=seeds,
       layouts=st.tuples(st.sampled_from(["interleaved", "component_major"]),
                         st.sampled_from(["interleaved", "component_major"])),
       out_layout=st.sampled_from([None, "interleaved", "component_major"]))
def test_hcomm_matches_matmul_and_is_exactly_antihermitian(shape, n, complex_valued, seed,
                                                            layouts, out_layout):
    """On Hermitian operands the one-product commutator AB - (AB)^dag is
    AB - BA within round-off, in any mix of layouts and into ``out=`` of
    either layout, and exactly anti-Hermitian; n = 4 takes ``mm``'s ``@``.
    Any set of its entries, formed alone, has their bits in the whole."""
    rng = np.random.default_rng(seed)
    A, B = (hermitize(random_field(rng, shape + (n, n), complex_valued)) for _ in range(2))
    want = A @ B - B @ A
    A, B = (component_major(M) if lay == "component_major" else M for M, lay in zip((A, B), layouts))
    out = None
    if out_layout is not None:
        out = np.full(shape + (n, n), np.nan, complex)
        out = component_major(out) if out_layout == "component_major" else out
    got = hcomm(A, B, out=out)
    assert out is None or got is out
    assert got.shape == want.shape and (out is not None or got.dtype == want.dtype)
    assert np.array_equal(got, -dagger(got))
    tol = 8 * n * EPS * np.max(np.abs(A)) * np.max(np.abs(B))
    assert np.max(np.abs(got - want)) <= tol
    entries = [ab for ab in np.ndindex(n, n) if rng.random() < 0.5]
    part = hcomm(A, B, out=np.empty(shape + (len(entries),), got.dtype), entries=entries)
    assert all(same_bits(part[..., e], got[..., a, b]) for e, (a, b) in enumerate(entries))


@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), stack=st.sampled_from([(), (2,), (2, 2)]),
       seed=seeds, layout=st.sampled_from(["interleaved", "component_major"]))
def test_pair_hermitian_matches_tr_prod(shape, n, stack, seed, layout):
    """The pairing of a Hermitian field R against the planes of X is Re Tr(X R)
    (``tr_prod``) within round-off, for one R or a stack of R (Nq, Np, s, n, n)
    in either layout, each paired with every X."""
    rng = np.random.default_rng(seed)
    R = hermitize(random_field(rng, shape + stack + (n, n), True))
    Xs = [random_field(rng, shape + (n, n), True) for _ in range(2)]  # not Hermitian
    Rl = component_major(R) if layout == "component_major" else R
    out = np.full((2,) + stack + shape, np.nan)
    planes = pairing_planes(*Xs).reshape((2, n * n) + (1,) * len(stack) + shape)
    assert pair_hermitian(Rl, planes, live_planes(planes), out) is out
    for X, got in zip(Xs, out):
        for index in np.ndindex(stack):
            Rs = R[(slice(None), slice(None)) + index]
            tol = 8 * n * n * EPS * np.max(np.abs(X)) * np.max(np.abs(Rs))
            assert np.max(np.abs(got[index] - tr_prod(X, Rs))) <= tol


@pytest.mark.parametrize("complex_valued", [False, True])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), k=st.integers(1, MM_SUMS_MAX),
       m=st.integers(1, 4), seed=seeds)
def test_mm_on_planar_view_gives_same_bits(complex_valued, shape, n, k, m, seed):
    rng = np.random.default_rng(seed)
    A = random_field(rng, shape + (n, k), complex_valued)
    B = random_field(rng, shape + (k, m), complex_valued)
    Ap = component_major(A)
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


# The only function of the package that calls einsum: the spline gather,
# which contracts no matrix field.
EINSUM_ALLOWED = {("grids", "PhaseGrid.interpolate")}


def test_einsum_stays_out_of_the_contraction_path():
    """Every matrix-field trace, product and eigen-composition goes through
    ``grids.mm``/``hcomm``/``tr_prod``/``eigen_compose``: no einsum call
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
    assert found == EINSUM_ALLOWED  # the guard still sees the one it allows


def test_the_speed_policy_stays_in_max_speed():
    """The largest transport speed is taken in one place: ``dynamics`` calls
    ``hypot`` only inside ``max_speed``, and puts no ``"max_speed"`` key in
    a mapping."""
    hypot_scopes, speed_keys = set(), []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "hypot":
                    hypot_scopes.add(".".join(scope))
                speed_keys.extend(".".join(scope) for kw in child.keywords if kw.arg == "max_speed")
            elif isinstance(child, ast.Dict):
                speed_keys.extend(".".join(scope) for key in child.keys
                                  if isinstance(key, ast.Constant) and key.value == "max_speed")
            elif isinstance(child, ast.Subscript):
                key = child.slice
                if isinstance(key, ast.Constant) and key.value == "max_speed":
                    speed_keys.append(".".join(scope))
            visit(child, inner)

    path = pathlib.Path(mqclab.__file__).parent / "dynamics.py"
    visit(ast.parse(path.read_text()), ())
    assert hypot_scopes == {"max_speed"}
    assert speed_keys == []


# The density right-hand sides and the Sigma-hat function they share: every
# operand there is Hermitian, so no general commutator and no full trace.
DENSITY_RHS = {"ehrenfest_rhs", "beyond_ehrenfest_rhs", "beyond_sigma", "_density_tendency"}


def one_velocity_path_breaches(source):
    """(scope, call) pairs of ``source`` that leave the one velocity path: a
    right-hand side (a function named ``*_rhs``) calling ``pairing``, which
    re-combines raw X fields on every call, ``rk4_run`` calling ``stack``,
    which copies the velocity the tracer can read as planes, and a density
    right-hand side (``DENSITY_RHS``) calling ``tr_prod`` or the general
    ``comm`` where its Hermitian operands need only ``pair_hermitian`` and
    ``hcomm``. Also (scope, name) pairs that measure or restore a Hermiticity
    the tendency has by construction: ``_density_tendency`` calling
    ``hermitize`` or ``antiherm_residual``, and any function or lambda with
    a parameter named ``residual``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                inner = scope + (getattr(child, "name", "<lambda>"),)
                if not isinstance(child, ast.ClassDef) and "residual" in {
                        a.arg for a in ast.walk(child.args) if isinstance(a, ast.arg)}:
                    found.add((".".join(inner), "residual"))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if (name == "pairing" and any(s.endswith("_rhs") for s in scope)
                        or name == "stack" and "rk4_run" in scope
                        or name in ("tr_prod", "comm") and DENSITY_RHS.intersection(scope)
                        or name in ("hermitize", "antiherm_residual")
                        and "_density_tendency" in scope):
                    found.add((".".join(scope), name))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_rhs_pair_against_the_static_planes_and_the_tracer_stacks_nothing():
    """No right-hand side calls ``pairing`` on X fields: they read the
    Hamiltonian's pre-combined planes through ``pair_planes``. ``rk4_run``
    hands the loop tracer the velocity's plane view without ``np.stack``.
    No density right-hand side calls ``tr_prod`` or ``comm``, the density
    tendency is neither symmetrized nor measured for a residual, and no
    function takes ``residual``. The guard flags each form as it was written
    before."""
    before = (
        "def uhlmann_rhs(grid, D, W, ham, out=None):\n"
        "    Xq, Xp = pairing(Wm, ham.X_q, ham.X_p)\n"
        "def rk4_run(model, state, ham, cfg):\n"
        "    def full_rhs(arrays, out, residual=False):\n"
        "        velocity = np.stack(info['velocity'], axis=-1)\n"
        "def _density_tendency(grid, P, velocity, axes, H, out, residual):\n"
        "    rot = comm(H, P, out=flux)\n"
        "    if residual:\n"
        "        info['antiherm_resid'] = antiherm_residual(tend)\n"
        "    return (hermitize(tend, out=dP),), info\n"
        "def ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL, out=None, residual=True):\n"
        "    for X, v in zip((ham.X_q, ham.X_p), velocity):\n"
        "        np.divide(tr_prod(P, X), denom, out=v)\n"
        "def beyond_ehrenfest_rhs(grid, P, ham, eps_tr_rel=EPS_D_REL, out=None, residual=True):\n"
        "    Sig = tuple(comm(P, XPk, out=buf(f'Sig{k}')) for k, XPk in enumerate(XP))\n"
        "    avgX = tuple(tr_prod(P, XHk) / D for XHk in XH)\n"
        "MODELS = {'beyond_ehrenfest': Model(HybridDensity, lambda s: (s.P,),\n"
        "    lambda grid, ham, a, out=None, residual=False: beyond_ehrenfest_rhs(\n"
        "        grid, a[0], ham, out=out, residual=residual), _dens_renorm)}\n"
    )
    assert one_velocity_path_breaches(before) == {
        ("uhlmann_rhs", "pairing"), ("rk4_run.full_rhs", "stack"),
        ("_density_tendency", "comm"), ("ehrenfest_rhs", "tr_prod"),
        ("beyond_ehrenfest_rhs", "comm"), ("beyond_ehrenfest_rhs", "tr_prod"),
        ("_density_tendency", "antiherm_residual"), ("_density_tendency", "hermitize"),
        ("rk4_run.full_rhs", "residual"), ("_density_tendency", "residual"),
        ("ehrenfest_rhs", "residual"), ("beyond_ehrenfest_rhs", "residual"),
        ("<lambda>", "residual")}
    path = pathlib.Path(mqclab.__file__).parent / "dynamics.py"
    source = path.read_text()
    assert one_velocity_path_breaches(source) == set()
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert DENSITY_RHS <= defined  # the guard still watches functions that exist


# Names that a second commutator, pairing or speed rule went by.
RETIRED = {"comm", "pairing", "VectorField2"}
# The names pairing planes go by, and the calls that test a field for zeros.
PLANE_NAMES = {"planes", "X_planes", "dX_planes"}
ZERO_TESTS = {"any", "all", "count_nonzero", "nonzero", "flatnonzero", "live_planes"}


def reads_planes(node):
    """Whether the expression ``node`` reads pairing planes: a name or an
    attribute in ``PLANE_NAMES`` that is not a called function."""
    called = {id(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
    return any(id(n) not in called and getattr(n, "id", getattr(n, "attr", None)) in PLANE_NAMES
               for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def second_path_breaches(sources):
    """(module, scope, what) of ``sources`` ({module name: source}) that open a
    second path: a definition of a ``RETIRED`` name or of ``max_speed``
    outside ``dynamics``, a call of ``comm``, a call of ``pairing_planes``
    outside ``hamiltonians``, whose ``X_planes`` and ``dX_planes`` are the X
    planes every pairing reads, a zero test of planes (a ``ZERO_TESTS`` call
    on them, ``live_planes`` among them) or a definition of ``live_planes``
    outside ``hamiltonians``, the one place of the sparsity policy, and a
    product with planes (``*``, ``*=`` or ``multiply``) outside
    ``_accumulate_pairing``, the one accumulation. ``what`` is ``def
    <name>``, the called name or ``multiplies planes``."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if (child.name in RETIRED or child.name == "max_speed" and module != "dynamics"
                        or child.name == "live_planes" and module != "hamiltonians"):
                    found.add((module, ".".join(inner), "def " + child.name))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "comm" or name == "pairing_planes" and module != "hamiltonians":
                    found.add((module, ".".join(scope), name))
                if name in ZERO_TESTS and module != "hamiltonians" and (
                        name == "live_planes" or any(reads_planes(a) for a in child.args)):
                    found.add((module, ".".join(scope), name))
                if name == "multiply" and any(reads_planes(a) for a in child.args[:2]) \
                        and "_accumulate_pairing" not in scope:
                    found.add((module, ".".join(scope), "multiplies planes"))
            elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult)
                  and (reads_planes(child.left) or reads_planes(child.right))
                  or isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Mult)
                  and (reads_planes(child.target) or reads_planes(child.value))):
                if "_accumulate_pairing" not in scope:
                    found.add((module, ".".join(scope), "multiplies planes"))
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, ())
    return found


def test_one_commutator_one_pairing_one_speed_rule():
    """No module of the package defines or calls ``comm`` or defines
    ``pairing`` or ``VectorField2``; only ``hamiltonians`` builds X planes
    (``pairing_planes``) and tests them for zeros (``live_planes``), only
    ``grids._accumulate_pairing`` multiplies them, and only ``dynamics``
    defines ``max_speed``. The guard flags each form as it was written
    before, and a zero test or a product of planes outside its one place."""
    before = {
        "grids": ("def comm(A, B, out=None):\n"
                  "    return mm(A, B) - mm(B, A)\n"
                  "class VectorField2:\n"
                  "    def max_speed(self):\n"
                  "        return float(np.max(np.hypot(np.abs(self.X_q), np.abs(self.X_p))))\n"),
        "dynamics": ("def mean_field_rhs(grid, D, rho, ham, out=None):\n"
                     "    comm(Hbar, rho, out=drho)\n"
                     "def pairing(W, *Xs):\n"
                     "    return pair_planes(W, pairing_planes(*Xs), out)\n"),
        "invariants": ("def hybrid_bracket(f, g, state, return_scale=False):\n"
                       "    term2 = tr_prod(P, 1j * comm(g.G, f.G)) / grid.hbar\n"),
        "equilibria": ("def gibbs_conditional(problem, check_confined=False):\n"
                       "    live = [t for t in range(4) if np.any(ham.X_planes[:, t])]\n"
                       "    dE_p = np.multiply(ham.X_planes[0, 0], psi.real, out=v)\n"
                       "def live_planes(planes):\n"
                       "    return np.count_nonzero(planes, axis=(-2, -1))\n"),
        "states": ("def split_velocity(split, ham):\n"
                   "    live = live_planes(ham.X_planes)\n"
                   "    v = ham.X_planes[:, 0] * R.real\n"
                   "    v *= planes[:, 3]\n"),
    }
    assert second_path_breaches(before) == {
        ("grids", "comm", "def comm"), ("grids", "VectorField2", "def VectorField2"),
        ("grids", "VectorField2.max_speed", "def max_speed"),
        ("dynamics", "mean_field_rhs", "comm"), ("dynamics", "pairing", "def pairing"),
        ("dynamics", "pairing", "pairing_planes"), ("invariants", "hybrid_bracket", "comm"),
        ("equilibria", "gibbs_conditional", "any"),
        ("equilibria", "gibbs_conditional", "multiplies planes"),
        ("equilibria", "live_planes", "def live_planes"),
        ("equilibria", "live_planes", "count_nonzero"),
        ("states", "split_velocity", "live_planes"),
        ("states", "split_velocity", "multiplies planes")}
    sources = {path.stem: path.read_text()
               for path in sorted(pathlib.Path(mqclab.__file__).parent.glob("*.py"))}
    assert second_path_breaches(sources) == set()
    # the guard still sees the one place of each
    assert "pairing_planes(" in sources["hamiltonians"] and "def max_speed(" in sources["dynamics"]
    assert "def live_planes(" in sources["hamiltonians"]
    renamed = sources["grids"].replace("def _accumulate_pairing", "def _accumulate")
    assert second_path_breaches({"grids": renamed}) == {
        ("grids", "_accumulate", "multiplies planes")}  # it still sees the one product
    assert not any(hasattr(mod, name) for mod in (mqclab, mqclab.grids, mqclab.dynamics)
                   for name in RETIRED)


def vacuum_policy_breaches(sources):
    """(module, scope, what) of ``sources`` ({module name: source}) that open a
    second vacuum or entropy path: a call of ``vacuum_floor`` outside
    ``states`` and ``dynamics._regularized_trace`` (the regulator of the
    right-hand sides), an ``errstate`` that silences divide or invalid
    warnings outside ``states`` (whose ``on_support`` silences the vacuum
    points), a definition of ``vn_entropy_trace``, a method ``divergence``
    beside ``dynamics._divergence``, or a second entropy integrand: a function
    of ``invariants`` outside ``GammaSpec``, ``spectral_fn`` and ``scalar_fn``
    that reads a ``.spectrum`` and calls ``np.log`` or ``np.power`` (at any
    depth). ``what`` is the called name or ``def <name>``."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if child.name == "vn_entropy_trace" or (
                        child.name == "divergence" and isinstance(node, ast.ClassDef)):
                    found.add((module, ".".join(inner), "def " + child.name))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "vacuum_floor" and module != "states" and not (
                        module == "dynamics" and scope == ("_regularized_trace",)):
                    found.add((module, ".".join(scope), name))
                if name == "errstate" and module != "states" and any(
                        kw.arg in ("divide", "invalid") for kw in child.keywords):
                    found.add((module, ".".join(scope), name))
            visit(child, module, inner)

    def integrands(tree):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name != "GammaSpec":
                yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef) and node.name not in ("spectral_fn",
                                                                         "scalar_fn"):
                yield node.name, node

    for module, source in sources.items():
        tree = ast.parse(source)
        visit(tree, module, ())
        for scope, fn in integrands(tree) if module == "invariants" else ():
            nodes = list(ast.walk(fn))
            if any(isinstance(n, ast.Attribute) and n.attr == "spectrum" for n in nodes):
                found |= {(module, scope, "np." + n.func.attr) for n in nodes
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                          and getattr(n.func.value, "id", None) == "np"
                          and n.func.attr in ("log", "power")}
    return found


# Two entropy integrands beside C(Gamma), as ``invariants`` once wrote them.
PARENT_ENTROPY_BODIES = '''
def entropy_uhlmann(split) -> FlaggedValue:
    w = split.spectrum
    kept = w > EIG_CLAMP

    def pointwise(D, Lam):
        lam = D[..., None] * w  # eigenvalues of P
        logs = np.log(np.where(kept, lam, 1.0) / Lam[..., None])
        return np.sum(np.where(kept, -lam * logs, 0.0), axis=-1)

    return FlaggedValue(*_support_integral(split, pointwise))


def renyi_mqc(split, alpha) -> FlaggedValue:
    a = float(alpha)
    if a == 1.0:
        raise ValueError("alpha must differ from 1")
    w = split.spectrum
    kept = w > EIG_CLAMP

    def pointwise(D, Lam):
        powers = np.power(np.maximum(D[..., None] * w / Lam[..., None], 0.0), a)
        return Lam * np.sum(np.where(kept, powers, 0.0), axis=-1)

    total, ok = _support_integral(split, pointwise)
    return FlaggedValue(float(np.log(total) / (1.0 - a)) if ok else float("nan"), ok)
'''


def test_one_vacuum_policy_one_entropy_path():
    """Only ``states`` draws the vacuum (``vacuum_floor``, the silenced
    warnings of ``on_support``), apart from the density models' regulator;
    no module keeps a second entropy trace, a second divergence or a second
    entropy integrand beside ``GammaSpec``. The guard flags each form as it
    was written before."""
    before = {
        "invariants": (
            "def _support_integral(split, pointwise):\n"
            "    mask = split.support()\n"
            "    Dsafe = np.where(mask, D, 1.0)\n"
            "    with np.errstate(invalid='ignore', divide='ignore'):\n"
            "        integrand = np.where(mask, pointwise(Dsafe, Lam), 0.0)\n"
            "def hybrid_bracket(f, g, state, return_scale=False):\n"
            "    mask = TrP > vacuum_floor(TrP)\n"
            "    denom = np.where(mask, TrP, 1.0)\n"
            "def entropy_uhlmann(split):\n"
            "    floor = vacuum_floor(split.D, EIG_CLAMP)\n"
            + PARENT_ENTROPY_BODIES),
        "grids": ("class PhaseGrid:\n"
                  "    def divergence(self, flux_q, flux_p):\n"
                  "        return self.partial_q(flux_q) + self.partial_p(flux_p)\n"
                  "def vn_entropy_trace(M):\n"
                  "    return -np.sum(w * np.log(w), axis=-1)\n"),
    }
    assert vacuum_policy_breaches(before) == {
        ("invariants", "_support_integral", "errstate"),
        ("invariants", "hybrid_bracket", "vacuum_floor"),
        ("invariants", "entropy_uhlmann", "vacuum_floor"),
        ("invariants", "entropy_uhlmann", "np.log"), ("invariants", "renyi_mqc", "np.log"),
        ("invariants", "renyi_mqc", "np.power"),
        ("grids", "PhaseGrid.divergence", "def divergence"),
        ("grids", "vn_entropy_trace", "def vn_entropy_trace")}
    sources = {path.stem: path.read_text()
               for path in sorted(pathlib.Path(mqclab.__file__).parent.glob("*.py"))}
    assert vacuum_policy_breaches(sources) == set()
    # the guard still sees the regulator's call, and the helper's errstate
    renamed = sources["dynamics"].replace("def _regularized_trace", "def _trace")
    assert vacuum_policy_breaches({"dynamics": renamed}) == {("dynamics", "_trace", "vacuum_floor")}
    assert {("invariants", "on_support", "vacuum_floor"), ("invariants", "on_support", "errstate"),
            ("invariants", "floored", "vacuum_floor")} <= vacuum_policy_breaches(
        {"invariants": sources["states"]})
    assert not any(hasattr(mod, "vn_entropy_trace") for mod in (mqclab, mqclab.grids))
    assert not hasattr(PhaseGrid, "divergence")


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


@pytest.mark.parametrize("layout", ["interleaved", "component_major"])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 4), m=st.integers(1, 3), seed=seeds)
def test_pairing_matches_einsum(layout, shape, n, m, seed):
    rng = np.random.default_rng(seed)
    W = random_field(rng, shape + (n, m), True)
    X = random_field(rng, shape + (n, n), True)  # complex, not Hermitian
    Xl = component_major(X) if layout == "component_major" else X
    want = np.einsum("ijak,ijab,ijbk->ij", np.conj(W), X, W).real
    tol = 8 * n * n * m * EPS * np.max(np.abs(X)) * np.max(np.abs(W)) ** 2
    assert np.max(np.abs(pairing(W, Xl) - want)) <= tol


@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 2), seed=seeds)
def test_pairing_of_two_fields_equals_two_one_field_calls(shape, n, m, seed):
    """``pairing(W, X1, X2)``, one local density W W^dag for both fields,
    gives what ``pairing(W, X1)`` and ``pairing(W, X2)`` give."""
    rng = np.random.default_rng(seed)
    W = random_field(rng, shape + (n, m), True)
    Xs = [random_field(rng, shape + (n, n), True) for _ in range(2)]
    both = pairing(W, *Xs)
    assert isinstance(both, tuple) and len(both) == 2
    for got, X in zip(both, Xs):
        tol = 8 * n * n * m * EPS * np.max(np.abs(X)) * np.max(np.abs(W)) ** 2
        assert got.shape == shape and np.max(np.abs(got - pairing(W, X))) <= tol


def uhlmann_rhs_einsum(grid, D, W, ham):
    """The split right-hand side with its products as einsums: the reference."""
    def pair(X):
        return np.einsum("ijak,ijab,ijbk->ij", np.conj(W), X, W).real

    Xq, Xp = pair(ham.X_q), pair(ham.X_p)
    dD = -(grid.partial_q(D * Xq) + grid.partial_p(D * Xp))
    dW = -(Xq[..., None, None] * grid.partial_q(W) + Xp[..., None, None] * grid.partial_p(W))
    dW += (-1j / grid.hbar) * np.einsum("ijab,ijbk->ijak", ham.H, W)
    return dD, dW


def random_hamiltonian(grid, rng, n):
    return tabulated(grid, hermitize(random_field(rng, grid.shape + (n, n), True)))


# Catalog Hamiltonians whose X_H has identically zero pairing planes, and a
# random one with none.
CATALOG = ("nanowire", "pure_dephasing", "q_only", "uncoupled", "random")


def catalog_hamiltonian(kind, grid, rng, n):
    """The nanowire (X_p = 0, X_q diagonal), pure dephasing with A = sigma_z
    and a q-only coupling (diagonal X_H), pure dephasing with H a function
    of q alone (X_q = 0, X_p diagonal), uncoupled (X_H a multiple of 1, of
    dimension n) or a random tabulated Hamiltonian of dimension n."""
    if kind == "nanowire":
        return nanowire(grid, mass=rng.uniform(0.5, 2.0), eta=rng.uniform(0.1, 1.0),
                        B=rng.uniform(0.1, 0.5))
    if kind == "pure_dephasing":
        return pure_dephasing(grid, scalar_profile(grid, "trig_well", omega=rng.uniform(0.5, 2.0)),
                              scalar_profile(grid, "sin_q", amplitude=rng.uniform(0.1, 1.0)),
                              SIGMA_Z)
    if kind == "q_only":
        return pure_dephasing(grid, scalar_profile(grid, "cos_q", amplitude=rng.uniform(0.5, 2.0)),
                              scalar_profile(grid, "sin_q", amplitude=rng.uniform(0.1, 1.0)),
                              SIGMA_Z)
    if kind == "uncoupled":
        return uncoupled(grid, scalar_profile(grid, "trig_well", omega=rng.uniform(0.5, 2.0)),
                         hermitize(random_field(rng, (n, n), True)))
    return random_hamiltonian(grid, rng, n)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(CATALOG), shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3),
       seed=seeds)
def test_uhlmann_rhs_matches_einsum_formula(kind, shape, n, m, seed):
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=0.5)
    ham = catalog_hamiltonian(kind, grid, rng, n)
    n, m = ham.n, min(m, ham.n)
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


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(CATALOG), shape=grid_sizes, n=st.integers(1, 3), seed=seeds)
def test_mean_field_rhs_matches_the_written_formula(kind, shape, n, seed):
    """The mean-field tendencies, paired and transported only where X_H has
    live planes, are those of the written formula (``oracles``), which reads
    every plane, within round-off."""
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=0.5)
    ham = catalog_hamiltonian(kind, grid, rng, n)
    n = ham.n
    D = 1.0 + 0.5 * rng.random(shape)
    A = random_field(rng, (n, n), True)
    rho = hermitize(A @ dagger(A))
    (dD, drho), _ = mean_field_rhs(grid, D, rho, ham)
    want_dD, want_drho = mean_field_rhs_formula(grid, D, rho, ham)
    dH = max(np.max(np.abs(ham.dH_q)), np.max(np.abs(ham.dH_p)))
    speed = n * n * dH * np.max(np.abs(rho))  # bounds |Tr(rho dH)|
    h = min(grid.dq, grid.dp)
    Hbar = grid.area * np.max(D) * np.max(np.abs(ham.H))  # bounds |integral(D H)|
    assert np.max(np.abs(dD - want_dD)) <= 32 * n * n * EPS * speed * np.max(D) / h
    assert np.max(np.abs(drho - want_drho)) <= 32 * n * EPS * Hbar * np.max(np.abs(rho)) / grid.hbar


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(CATALOG), shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3),
       seed=seeds)
def test_ehrenfest_rhs_matches_the_written_formula(kind, shape, n, m, seed):
    """The Ehrenfest density tendency, paired and transported only where X_H
    has live planes, is that of the written formula (``oracles``), which
    reads every plane, within round-off."""
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=0.5)
    ham = catalog_hamiltonian(kind, grid, rng, n)
    n, m = ham.n, min(m, ham.n)
    W = random_field(rng, shape + (n, m), True)
    P = hermitize((1.0 + 0.5 * rng.random(shape))[..., None, None] * (W @ dagger(W)))
    (dP,), _ = ehrenfest_rhs(grid, P, ham)
    want = ehrenfest_rhs_formula(grid, P, ham)
    X = max(np.max(np.abs(ham.X_q)), np.max(np.abs(ham.X_p)))
    speed = n * X  # bounds |Tr(P X_k)| / Tr P for P >= 0
    h = min(grid.dq, grid.dp)
    tol = 64 * n * n * EPS * np.max(np.abs(P)) * (speed / h + np.max(np.abs(ham.H)) / grid.hbar)
    assert np.max(np.abs(dP - want)) <= tol


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(CATALOG), shape=grid_sizes, n=st.integers(1, 3),
       hbar=st.floats(0.25, 2.0), seed=seeds)
def test_beyond_rhs_and_energy_match_the_written_formulas(kind, shape, n, hbar, seed):
    """The beyond-Ehrenfest tendency and energy at a positive P are those of
    the written formulas (``oracles``), which read d ln sqrt(D) as Tr d_k P
    / 2D and every plane of X_H, within round-off. The bound is a multiple
    of eps scaled by the operands: |d_k P| <= 1.5 max|P| / h for the
    stencil, |P| <= D for P >= 0, so |Sigma_k| <= n hbar |d_k P|, and
    from these the speed |X_k| and |scriptH|."""
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=hbar)
    ham = catalog_hamiltonian(kind, grid, rng, n)
    n = ham.n
    W = random_field(rng, shape + (n, n), True)
    P = hermitize((1.0 + 0.5 * rng.random(shape))[..., None, None] * (W @ dagger(W)))
    (dP,), _ = beyond_ehrenfest_rhs(grid, P, ham)
    want = beyond_ehrenfest_rhs_formula(grid, P, ham)
    h, Dmin = min(grid.dq, grid.dp), np.min(np.trace(P, axis1=-2, axis2=-1).real)
    X = max(np.max(np.abs(ham.X_q)), np.max(np.abs(ham.X_p)))
    H, Pmax = np.max(np.abs(ham.H)), np.max(np.abs(P))
    sigma = n * hbar * 1.5 * Pmax / h
    speed = n * X + 6 * n * n * X * sigma / (h * Dmin)
    scrH = H + 4 * n * (1 + n / 2) * hbar * 1.5 * Pmax / h * X / Dmin
    assert np.max(np.abs(dP - want)) <= n * n * EPS * Pmax * (speed / h + scrH / hbar)
    energy = energy_of("beyond_ehrenfest", mqclab.HybridDensity(grid, P), ham)
    tol = n * n * EPS * grid.area * Pmax * (H + 2 * sigma * X)
    assert abs(energy - beyond_energy_formula(grid, P, ham)) <= tol


@pytest.mark.parametrize("kind", CATALOG)
def test_the_live_index_matches_the_planes(kind):
    """Each catalog Hamiltonian's live index names exactly the planes of
    X_H and of its gradients that are not identically zero, and ``X_axes``
    the components of X_H that are not; the plain-pairing right-hand sides
    write the nanowire's velocity along p, X_p = 0, as exact +0.0."""
    rng = np.random.default_rng(7)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, 16, 12, hbar=0.5)
    ham = catalog_hamiltonian(kind, grid, rng, 3)
    for planes, live in ((ham.X_planes, ham.X_live), (ham.dX_planes, ham.dX_live)):
        assert len(live) == planes.shape[1] == ham.n ** 2
        for k, t in np.ndindex(planes.shape[:2]):
            assert (k in live[t]) == bool(np.any(planes[k, t]))
    X = (ham.X_q, ham.X_p)
    assert ham.X_axes == tuple(k for k in range(2) if np.any(X[k]))
    expected = {"nanowire": ((0,), (), (), (0,)), "pure_dephasing": ((0, 1), (), (), (0, 1)),
                "q_only": ((1,), (), (), (1,))}
    if kind in expected:
        assert ham.X_live == expected[kind]
    elif kind == "uncoupled":  # X_H is a multiple of 1: only the diagonal planes live
        assert ham.X_live == tuple((0, 1) if t in (0, 5, 8) else () for t in range(9))
    else:
        assert ham.X_live == ((0, 1),) * 9
    if kind != "nanowire":
        return
    D = 1.0 + 0.5 * rng.random(grid.shape)
    W = random_field(rng, grid.shape + (2, 1), True)
    P = D[..., None, None] * hermitize(W @ dagger(W))
    velocities = [uhlmann_rhs(grid, D, W, ham)[1], ehrenfest_rhs(grid, P, ham)[1],
                  mean_field_rhs(grid, D, np.diag([0.7, 0.3]).astype(complex), ham)[1]]
    for v in velocities:
        assert ham.X_axes == (0,) and np.any(v[0])
        assert np.all(v[1] == 0.0) and not np.any(np.signbit(v[1]))


@pytest.mark.parametrize("kind, rhs_calls, energy_calls", [
    ("nanowire", (3, 2), (1, 0)), ("q_only", (2, 3), (0, 1)), ("random", (3, 3), (1, 1))])
def test_beyond_stencils_only_what_a_live_axis_reads(monkeypatch, kind, rhs_calls, energy_calls):
    """The beyond right-hand side differences Sigma-hat, and the beyond
    energy differences P, only along the live axes of X_H: (q, p) stencil
    calls per right-hand side d_q P, d_p P, d_j Sigma for each live j and
    the transport along both axes; per energy d_k P for each live k."""
    rng = np.random.default_rng(3)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, 12, 10, hbar=0.5)
    ham = catalog_hamiltonian(kind, grid, rng, 2)
    ham.X_planes, ham.dX_planes  # built on first use, through the stencil too
    W = random_field(rng, grid.shape + (2, 2), True)
    P = hermitize((1.0 + 0.5 * rng.random(grid.shape))[..., None, None] * (W @ dagger(W)))
    calls = {}
    for name in ("partial_q", "partial_p"):
        stencil = getattr(PhaseGrid, name)

        def counted(self, *args, _name=name, _stencil=stencil, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _stencil(self, *args, **kwargs)

        monkeypatch.setattr(PhaseGrid, name, counted)

    def counts():
        got = (calls.get("partial_q", 0), calls.get("partial_p", 0))
        calls.clear()
        return got

    beyond_ehrenfest_rhs(grid, P, ham)
    assert counts() == rhs_calls
    energy_of("beyond_ehrenfest", mqclab.HybridDensity(grid, P), ham)
    assert counts() == energy_calls


def test_live_entries_are_the_entries_a_live_plane_reads():
    """The entry rule: (a, b), a <= b in row-major order, with the planes
    that read it, for every entry some live plane of any index reads. The
    beyond right-hand side asks for the entries of X_H and its gradients,
    the beyond energy for those of X_H."""
    rng = np.random.default_rng(5)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, 12, 10, hbar=0.5)

    def read(kind, n):
        ham = catalog_hamiltonian(kind, grid, rng, n)
        return list(live_entries(ham.X_live, ham.dX_live)), list(live_entries(ham.X_live))

    assert read("nanowire", 2) == ([(0, 0), (1, 1)],) * 2
    assert read("uncoupled", 3) == ([(0, 0), (1, 1), (2, 2)],) * 2
    upper = [(a, b) for a in range(3) for b in range(a, 3)]
    assert read("random", 3) == (upper, upper)
    assert live_entries(catalog_hamiltonian("random", grid, rng, 2).X_live) == {
        (0, 0): (0,), (0, 1): (1, 2), (1, 1): (3,)}
    # an entry read by one index only, or through its imaginary part only
    assert live_entries(((),) * 4, ((1,), (), (), ())) == {(0, 0): (0,)}
    assert live_entries(((), (), (0,), ())) == {(0, 1): (1, 2)}


def pair_every_read_entry(R, planes, live, out):
    """Re Tr(X R) summed as the pairing sums it, for a Hermitian R (..., n,
    n), with its own reading of the entry rule: R_ab, a <= b in row-major
    order, through plane t on the diagonal and t, t + 1 off it, met with
    the planes its live index names. A rule that drops an entry shows
    against it."""
    n, R = R.shape[-1], np.moveaxis(R, (0, 1), (-2, -1))
    started, t = [False] * len(out), 0
    for a in range(n):
        for b in range(a, n):
            reads = (t,) if a == b else (t, t + 1)
            t += len(reads)
            for s, part in zip(reads, (R[..., a, b, :, :].real, R[..., a, b, :, :].imag)):
                part = np.broadcast_to(part, out.shape)
                for k in live[s]:
                    if started[k]:
                        out[k] += planes[k, s] * part[k]
                    else:
                        out[k] = planes[k, s] * part[k]
                        started[k] = True
    for k, written in enumerate(started):
        if not written:
            out[k] = 0.0
    return out


def beyond_full_sigma(grid, P, ham):
    """(dP, velocity, energy) of the beyond model at a Hermitian P with every
    Sigma_k formed as a full n x n ``hcomm`` and differenced whole, each
    pairing by ``pair_every_read_entry``: the operations of the right-hand
    side and of ``energy_of`` at every entry they read, in the same order,
    so forming Sigma-hat only at those entries must keep every bit."""
    d = (grid.partial_q, grid.partial_p)
    TrP = trace_field(P)
    inv_D = 1.0 / (TrP + vacuum_floor(TrP))
    dP = [d[k](P) for k in range(2)]

    def sigma(grads, signs):
        return np.stack([hcomm(P, G) * ((s * 0.5j * grid.hbar) * inv_D)[..., None, None]
                         for G, s in zip(grads, signs)], axis=2)

    Sig = sigma((dP[1], dP[0]), (1.0, -1.0))
    dSig = np.zeros(P.shape[:2] + (2, 2) + P.shape[2:], complex)
    for j in ham.X_axes:
        dSig[:, :, j] = d[j](Sig)
    calX = pair_every_read_entry(P, ham.X_planes, ham.X_live, np.empty((2,) + TrP.shape))
    grad_sig = pair_every_read_entry(dSig, ham.X_planes[:, :, None], ham.X_live,
                                     np.empty((2, 2) + TrP.shape))
    sig_grad = pair_every_read_entry(Sig, ham.dX_planes, ham.dX_live, np.empty((2, 2) + TrP.shape))
    calX += (grad_sig[0] + grad_sig[1]) - (sig_grad[:, 0] + sig_grad[:, 1])
    calX *= inv_D
    GX = np.zeros(P.shape, complex)
    for i, k in enumerate(ham.X_axes):
        dlns = trace_field(dP[k]) * 0.5 * inv_D
        term = hcomm(dP[k] - P * dlns[..., None, None], (ham.X_q, ham.X_p)[k])
        GX = term if i == 0 else GX + term
    scrH = ham.H + GX * ((1j * grid.hbar) * inv_D)[..., None, None]
    flux = [d[k](P * calX[k][..., None, None]) for k in range(2)]
    tendency = -(flux[0] + flux[1]) + hcomm(scrH, P) * (-1j / grid.hbar)
    pairs = pair_every_read_entry(sigma(dP, (1.0, 1.0)), ham.X_planes, ham.X_live,
                                  np.empty((2,) + TrP.shape))
    energy = float(grid.integrate(tr_prod(P, ham.H))) + float(grid.integrate(pairs[0] + pairs[1]))
    return tendency, calX, energy


def bits(a):
    """The 64-bit words of a float or complex array, to compare bit for bit."""
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CATALOG), shape=grid_sizes, n=st.integers(1, 4),
       hbar=st.floats(0.25, 2.0), seed=seeds)
def test_beyond_sigma_at_the_read_entries_keeps_the_bits(kind, shape, n, hbar, seed):
    """The beyond tendency, velocity and energy, with Sigma-hat formed only
    at the entries a live plane reads, have the bits of the full-matrix
    form (``beyond_full_sigma``) for every catalog Hamiltonian, up to
    n = 4, where ``mm`` takes the full product and the entries from it."""
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=hbar)
    ham = catalog_hamiltonian(kind, grid, rng, n)
    n = ham.n
    W = random_field(rng, shape + (n, n), True)
    P = hermitize((1.0 + 0.5 * rng.random(shape))[..., None, None] * (W @ dagger(W)))
    (dP,), velocity = beyond_ehrenfest_rhs(grid, component_major(P), ham)
    energy = energy_of("beyond_ehrenfest", mqclab.HybridDensity(grid, P), ham)
    want_dP, want_velocity, want_energy = beyond_full_sigma(grid, P, ham)
    assert np.array_equal(bits(dP), bits(want_dP))
    assert np.array_equal(bits(velocity), bits(want_velocity))
    assert np.array_equal(bits([energy]), bits([want_energy]))


@pytest.mark.parametrize("kind", CATALOG)
def test_beyond_reads_no_entry_it_does_not_form(kind):
    """With every ``beyond.*`` and ``energy.*`` scratch buffer filled with
    NaN before a call, the beyond tendency, velocity and energy keep their
    bits: nothing reads an entry or an axis the packed stack leaves
    unformed."""
    rng = np.random.default_rng(11)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, 12, 10, hbar=0.5)
    ham = catalog_hamiltonian(kind, grid, rng, 3)
    W = random_field(rng, grid.shape + (ham.n, ham.n), True)
    P = component_major(hermitize(W @ dagger(W)) + np.eye(ham.n))

    def outputs():
        (dP,), velocity = beyond_ehrenfest_rhs(grid, P, ham)
        return dP.copy(), velocity.copy(), energy_of("beyond_ehrenfest",
                                                     mqclab.HybridDensity(grid, P), ham)

    want = outputs()
    poisoned = [tag for tag in grids._scratch if tag.startswith(("beyond.", "energy."))]
    assert {"beyond.Sig", "beyond.dSig", "beyond.G", "energy.Sig"} <= set(poisoned)
    for tag in poisoned:
        grids._scratch[tag].view(np.float64)[:] = np.nan
    got = outputs()
    assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got[:2], want[:2]))
    assert np.array_equal(bits([got[2]]), bits([want[2]]))


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


def model_case(model, shape, n, m, seed):
    """(grid, ham, arrays): a random Hamiltonian and random interleaved state
    arrays of ``model``, with D > 0."""
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape, hbar=0.5)
    ham = random_hamiltonian(grid, rng, n)
    D = 1.0 + 0.5 * rng.random(shape)
    W = random_field(rng, shape + (n, m), True)
    if model == "mean_field":
        rho = random_field(rng, (n, n), True)
        arrays = (D, rho @ np.conj(rho.T))
    elif model == "ehrenfest_conditional":
        arrays = (D, W[..., 0].copy())
    elif model == "ehrenfest_uhlmann":
        arrays = (D, W)
    else:
        arrays = (D[..., None, None] * (W @ np.conj(np.swapaxes(W, -1, -2))),)
    return grid, ham, arrays


@pytest.mark.parametrize("model", list(MODELS))
@settings(max_examples=15, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds)
def test_every_model_has_a_hermitian_density_tendency(model, shape, n, m, seed):
    grid, ham, arrays = model_case(model, shape, n, m, seed)
    tends, _ = MODELS[model].rhs(grid, ham, arrays)
    dP = implied_density_tendency(model, arrays, tends)
    residual = np.max(np.abs(dP - np.conj(np.swapaxes(dP, -1, -2))))
    assert residual <= 64 * n * m * EPS * np.max(np.abs(dP))


# -- one layout: component planes, and the same bits from either layout ---------

LAYOUTS = ("interleaved", "component_major")


def laid_out(a, layout):
    """``a`` stored in ``layout``; a field without trailing axes has only one."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return a.copy()
    return component_major(a.copy()) if layout == "component_major" else np.ascontiguousarray(a)


def is_component_major(a):
    return np.moveaxis(a, (0, 1), (-2, -1)).flags.c_contiguous


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_case(kernel, rng, shape, n, k, m, complex_valued):
    """(operands, f(*operands, out=None) or f(*operands) without ``out``)."""
    A = random_field(rng, shape + (n, k), complex_valued)
    if kernel in ("diff4_q", "diff4_p"):
        axis = 0 if kernel == "diff4_q" else 1
        return (A,), lambda a, out=None: _diff4(a, axis, 0.37, out)
    if kernel == "mm":
        return (A, random_field(rng, shape + (k, m), complex_valued)), mm
    if kernel == "hermitize":
        return (random_field(rng, shape + (n, n), complex_valued),), hermitize
    if kernel == "hcomm":
        return tuple(hermitize(random_field(rng, shape + (n, n), complex_valued))
                     for _ in range(2)), hcomm
    if kernel == "tr_prod":
        return (A, random_field(rng, shape + (k, n), complex_valued)), tr_prod
    if kernel == "pair_hermitian":
        R = hermitize(random_field(rng, shape + (n, n), complex_valued))
        return (R, random_field(rng, shape + (n, n), True)), lambda R, X: pair_hermitian(
            R, pairing_planes(X), live_planes(pairing_planes(X)), np.empty((1,) + R.shape[:2]))
    W = random_field(rng, shape + (n, m), True)
    return (W, random_field(rng, shape + (n, n), complex_valued)), pairing


@pytest.mark.parametrize("kernel", ["diff4_q", "diff4_p", "mm", "hcomm", "hermitize",
                                    "tr_prod", "pairing", "pair_hermitian"])
@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), k=st.integers(1, MM_SUMS_MAX + 1),
       m=st.integers(1, 3), complex_valued=st.booleans(), seed=seeds,
       layouts=st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS)),
       out_layout=st.sampled_from((None,) + LAYOUTS))
def test_kernels_give_the_same_bits_in_either_layout(kernel, shape, n, k, m, complex_valued, seed,
                                                     layouts, out_layout):
    """Each kernel gives the bits of its interleaved result on operands in any
    mix of layouts, writing into ``out=`` of either layout; a fresh result of
    component-plane operands is component planes itself."""
    operands, f = kernel_case(kernel, np.random.default_rng(seed), shape, n, k, m, complex_valued)
    want = f(*operands)
    laid = tuple(laid_out(a, lay) for a, lay in zip(operands, layouts))
    takes_out = kernel not in ("tr_prod", "pairing", "pair_hermitian")
    if takes_out:
        planes = f(*(laid_out(a, "component_major") for a in operands))
        assert is_component_major(planes) and same_bits(planes, want)
    if out_layout is None or not takes_out:
        got = f(*laid)
    else:
        out = laid_out(np.full_like(want, np.nan), out_layout)
        got = f(*laid, out=out)
        assert got is out
    assert same_bits(got, want)


@pytest.mark.parametrize("model", list(MODELS))
@settings(max_examples=10, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds,
       layout=st.sampled_from(LAYOUTS), out_layout=st.sampled_from((None,) + LAYOUTS))
def test_rhs_gives_the_same_bits_in_either_layout(model, shape, n, m, seed, layout, out_layout):
    """Each model's right-hand side gives the tendencies and velocity of its
    interleaved state on the component-plane state, into ``out=`` of either
    layout."""
    grid, ham, arrays = model_case(model, shape, n, m, seed)
    rhs = MODELS[model].rhs
    want, want_velocity = rhs(grid, ham, arrays)
    laid = tuple(laid_out(a, layout) for a in arrays)
    out = None if out_layout is None else tuple(
        laid_out(np.full_like(w, np.nan), out_layout) for w in want)
    got, velocity = rhs(grid, ham, laid, out=out)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    if out is None and layout == "component_major":
        assert all(is_component_major(g) for g in got)
    assert max_speed(velocity) == max_speed(want_velocity)
    assert same_bits(velocity, want_velocity)


DENSITY_MODELS = [name for name, spec in MODELS.items() if spec.state_type is mqclab.HybridDensity]


@pytest.mark.parametrize("model", DENSITY_MODELS)
@settings(max_examples=10, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds,
       eps=st.floats(1e-12, 1e-2), layout=st.sampled_from(LAYOUTS))
def test_density_rhs_reads_the_hermitian_part_of_p(model, shape, n, m, seed, eps, layout):
    """A density right-hand side gives, bit for bit, the same tendency and
    velocity for P + eps A, A anti-Hermitian, as for the Hermitian part of
    that P; on an exactly Hermitian P taking that part changes no bit. The
    tendency equals its conjugate transpose in value, with no symmetrizing
    pass: it is Hermitian by construction."""
    grid, ham, (P,) = model_case(model, shape, n, m, seed)
    A = random_field(np.random.default_rng(seed + 1), P.shape, True)
    P = hermitize(P) + eps * (A - np.conj(np.swapaxes(A, -1, -2)))
    herm = hermitize(P)
    assert same_bits(hermitize(herm), herm)
    rhs = MODELS[model].rhs
    (got,), velocity = rhs(grid, ham, (laid_out(P, layout),))
    (want,), want_velocity = rhs(grid, ham, (laid_out(herm, layout),))
    assert same_bits(got, want)
    assert same_bits(velocity, want_velocity)
    assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))


def old_max_speed(velocity):
    """The largest speed as each right-hand side used to take it: hypot(X_q,
    X_p) of its velocity (X_q, X_p); the mean field's is (dHeff_p, -dHeff_q)."""
    return float(np.max(np.hypot(*velocity)))


@pytest.mark.parametrize("model", list(MODELS))
@settings(max_examples=10, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds,
       cfl=st.floats(0.05, 0.3))
def test_cfl_step_and_guard_read_the_old_per_model_speed(model, shape, n, m, seed, cfl):
    """``cfl_dt`` and the CFL ratio of ``rk4_run`` (one step, dt < 0) have the
    bits of the speed each right-hand side used to report itself."""
    grid, ham, arrays = model_case(model, shape, n, m, seed)
    _, velocity = MODELS[model].rhs(grid, ham, arrays)
    speed = old_max_speed(velocity)
    assert same_bits(max_speed(velocity), speed)
    state = MODELS[model].state_type(grid, *arrays)
    minh = min(grid.dq, grid.dp)
    dt = cfl_dt(model, state, ham, cfl)
    assert same_bits(dt, float(cfl) * minh / max(speed, 1e-12))
    run = rk4_run(model, state, ham, StepperConfig(dt=-dt, steps=1))
    assert not run.aborted and same_bits(run.cfl_max_seen, abs(-dt) * speed / minh)


@settings(max_examples=300, deadline=None)
@given(shape=grid_sizes, seed=seeds, scale=st.floats(-300, 300),
       spread=st.floats(0, 40), special=st.sampled_from(
           ["none", "nan", "inf", "-inf", "zero q", "zero p", "all zero", "tie", "ring"]))
# rings whose top speed a ranking by the largest square alone misses (10^10),
# and one whose squares are subnormal (10^-160)
@example(shape=(16, 16), seed=36, scale=10.0, spread=0.0, special="ring")
@example(shape=(16, 16), seed=1, scale=-160.0, spread=0.0, special="ring")
def test_max_speed_has_the_bits_of_hypot_at_every_point(shape, seed, scale, spread, special):
    """``max_speed`` equals max hypot(X_q, X_p) bit for bit, without a
    warning, from 1e-300 to 1e300, with components spread over up to 40
    decades, with a nan or an infinite component, zero planes, two equal
    speeds and speeds that differ only in their last bits."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((2,) + shape) * 10.0 ** (scale - spread * rng.random((2,) + shape))
    i, j = rng.integers(shape[0]), rng.integers(shape[1])
    if special in ("nan", "inf", "-inf"):
        v[rng.integers(2), i, j] = float(special)
    elif special in ("zero q", "zero p"):
        v[special == "zero p"] = 0.0
    elif special == "all zero":
        v[...] = np.where(rng.random(v.shape) < 0.5, 0.0, -0.0)
    elif special == "tie":  # a second point at the top speed
        top = np.unravel_index(np.argmax(np.hypot(*v)), shape)
        v[:, i, j] = v[::-1, top[0], top[1]]
    elif special == "ring":  # every speed within a few ulps of 10^scale
        angle = 2 * np.pi * rng.random(shape)
        radius = 10.0**scale * (1 + EPS * rng.standard_normal(shape) / 2)
        v = np.stack([radius * np.cos(angle), radius * np.sin(angle)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = max_speed(v)
    assert same_bits(got, old_max_speed(v))


def pairing_per_x(W, *Xs):
    """The pairing as it was summed before the X planes were pre-combined:
    one W W^dag entry at a time, each X's Re X_aa, Re X_ab + Re X_ba and
    Im X_ab - Im X_ba formed from its strided real and imaginary parts on
    every call. The reference for ``pair_planes``."""
    W = np.asarray(W, dtype=complex)
    n, m = W.shape[-2:]
    lead = W.shape[:-2]
    R, conj_w, term = np.empty(lead, complex), np.empty(lead, complex), np.empty(lead)
    velocities = tuple(np.empty(lead) for _ in Xs)
    for a in range(n):
        for b in range(a, n):
            for c in range(m):
                np.conjugate(W[..., b, c], out=conj_w)
                if c == 0:
                    np.multiply(W[..., a, c], conj_w, out=R)
                else:
                    R += np.multiply(W[..., a, c], conj_w, out=conj_w)
            for X, v in zip(Xs, velocities):
                if a == b == 0:
                    np.multiply(X[..., 0, 0].real, R.real, out=v)
                elif a == b:
                    v += np.multiply(X[..., a, a].real, R.real, out=term)
                else:
                    np.add(X[..., a, b].real, X[..., b, a].real, out=term)
                    term *= R.real
                    v += term
                    np.subtract(X[..., a, b].imag, X[..., b, a].imag, out=term)
                    term *= R.imag
                    v += term
    return velocities


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(shape=grid_sizes, seed=seeds)
def test_pair_planes_gives_the_bits_of_the_per_x_loop(n, m, layout, hermitian, shape, seed):
    """The pairing against pre-combined X planes, both X in one pass, gives
    the bits of the per-X loop it replaces, as does one X alone; the
    Hamiltonian's cached planes are those of its X_q and X_p."""
    rng = np.random.default_rng(seed)
    W = random_field(rng, shape + (n, m), True)
    Xs = [random_field(rng, shape + (n, n), True) for _ in range(2)]
    if hermitian:
        Xs = [hermitize(X) for X in Xs]
    if layout == "component_major":
        W, Xs = component_major(W), [component_major(X) for X in Xs]
    want = pairing_per_x(W, *Xs)
    planes = pairing_planes(*Xs)
    assert planes.shape == (2, n * n) + shape and planes.dtype == float
    got = pair_planes(W, planes, live_planes(planes), np.full((2,) + shape, np.nan))
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert all(same_bits(g, w) for g, w in zip(pairing(W, *Xs), want))
    assert same_bits(pairing(W, Xs[1]), want[1])
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, *shape)
    ham = tabulated(grid, Xs[0] if hermitian else hermitize(Xs[0]))
    assert same_bits(ham.X_planes, pairing_planes(ham.X_q, ham.X_p))
    assert ham.X_planes is ham.X_planes  # built once


@pytest.mark.parametrize("model", list(MODELS))
@settings(max_examples=10, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), m=st.integers(1, 3), seed=seeds,
       layout=st.sampled_from(LAYOUTS))
def test_every_model_reports_one_velocity_array(model, shape, n, m, seed, layout):
    """Each right-hand side reports its velocity as one (2, Nq, Np) float
    array, the one layout the CFL speed and the loop tracer read; the split
    models' holds the bits of the per-X pairing, the density model's is
    <X_H> = Tr(P X_H) / Tr P and the mean field's Tr(rho X_H) = (Tr(rho
    dH_p), -Tr(rho dH_q)), both within round-off."""
    grid, ham, arrays = model_case(model, shape, n, m, seed)
    arrays = tuple(laid_out(a, layout) for a in arrays)
    _, velocity = MODELS[model].rhs(grid, ham, arrays)
    assert isinstance(velocity, np.ndarray)
    assert velocity.shape == (2,) + shape and velocity.dtype == float
    assert velocity.flags.c_contiguous
    if model in ("ehrenfest_conditional", "ehrenfest_uhlmann"):
        W = arrays[1] if arrays[1].ndim == 4 else arrays[1][..., None]
        assert all(same_bits(v, w) for v, w in zip(velocity, pairing_per_x(W, ham.X_q, ham.X_p)))
    elif model == "ehrenfest_density":
        P = arrays[0]
        denom = np.trace(P, axis1=-2, axis2=-1).real
        denom = denom + 1e-12 * np.max(denom)
        want = [tr_prod(P, X) / denom for X in (ham.X_q, ham.X_p)]
        assert all(np.max(np.abs(v - w)) <= 64 * EPS * np.max(np.abs(w)) for v, w in zip(velocity, want))
    elif model == "mean_field":
        rho = arrays[1]
        want = [tr_prod(rho, ham.dH_p), -tr_prod(rho, ham.dH_q)]
        scale = n * np.max(np.abs(rho)) * max(np.max(np.abs(ham.dH_q)), np.max(np.abs(ham.dH_p)))
        assert all(np.max(np.abs(v - w)) <= 16 * n * EPS * scale for v, w in zip(velocity, want))


def test_hamiltonian_and_states_hold_component_planes(tmp_path):
    """The Hamiltonian and every state store their matrix and vector fields
    as component planes: built from interleaved arrays, read back from a
    snapshot, or built as the conditional Gibbs state; a state built from
    planes keeps them without a copy."""
    from mqclab import (ConditionalSplit, HybridDensity, MaxEntProblem, UhlmannSplit,
                        gibbs_conditional, pure_dephasing, read_snapshot, scalar_profile,
                        write_snapshot)
    from mqclab.hamiltonians import SIGMA_Z

    rng = np.random.default_rng(5)
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 12, 10)
    ham = random_hamiltonian(grid, rng, 2)
    assert all(is_component_major(F) for F in (ham.H, ham.dH_q, ham.dH_p, ham.X_q, ham.X_p))
    D = 1.0 + rng.random(grid.shape)
    W = random_field(rng, grid.shape + (2, 2), True)
    assert not is_component_major(W)
    states = [HybridDensity(grid, W @ np.conj(np.swapaxes(W, -1, -2))), UhlmannSplit(grid, D, W),
              ConditionalSplit(grid, D, W[..., 0])]
    for k, state in enumerate(list(states)):
        write_snapshot(tmp_path / f"{k}.snap", state)
        states.append(read_snapshot(tmp_path / f"{k}.snap"))
    dephasing = pure_dephasing(grid, scalar_profile(grid, "trig_well", omega=0.4),
                               scalar_profile(grid, "sin_q", amplitude=0.2), SIGMA_Z)
    states.append(gibbs_conditional(MaxEntProblem("conditional", dephasing, mu=2.0, branch=1)).state)
    for state in states:
        fields = [state.P] if isinstance(state, HybridDensity) else [state.W]
        if isinstance(state, ConditionalSplit):
            fields.append(state.psi)
        assert all(is_component_major(F) for F in fields), type(state).__name__
    again = HybridDensity(grid, states[0].P)
    assert np.shares_memory(again.P, states[0].P)


def test_frobenius_norms_give_the_same_bits_in_either_layout():
    """The pointwise Frobenius norms sum the entries in one fixed order, so
    ``antiherm_residual`` and the split renormalisation give the same bits on
    3 x 3 component planes as interleaved; up to 2 x 2 the norm keeps the
    bits of ``np.linalg.norm``, and beyond that agrees with it to round-off."""
    rng = np.random.default_rng(36)
    grid = PhaseGrid(-np.pi, np.pi, -2.0, 2.0, 16, 16)
    renorm = MODELS["ehrenfest_uhlmann"].renorm
    for _ in range(20):
        M = random_field(rng, grid.shape + (3, 3), True)
        assert antiherm_residual(laid_out(M, "component_major")) == antiherm_residual(M)
        D, W = 1.0 + rng.random(grid.shape), random_field(rng, grid.shape + (3, 3), True)
        planes = renorm(grid, (D, laid_out(W, "component_major")))
        assert all(same_bits(p, i) for p, i in zip(planes, renorm(grid, (D, W))))
    for n, m in np.ndindex(4, 4):
        for complex_valued in (False, True):
            M = random_field(rng, grid.shape + (n + 1, m + 1), complex_valued)
            got, want = frobenius_norm(M), np.linalg.norm(M, axis=(-2, -1))
            assert same_bits(frobenius_norm(laid_out(M, "component_major")), got)
            if n < 2 and m < 2:
                assert same_bits(got, want)
            assert np.max(np.abs(got - want)) <= 4 * (n + 1) * (m + 1) * EPS * np.max(want)


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
       trailing=st.integers(1, 4).flatmap(
           lambda n: st.sampled_from([(), (n,), (n, 1), (n, n), (2, 1), (2, 2), (2, n, n)])),
       layout=st.sampled_from(LAYOUTS), out_layout=st.sampled_from((None,) + LAYOUTS))
def test_diff4_equals_rolled_stencil(axis, complex_valued, shape, h, seed, trailing, layout,
                                     out_layout):
    """Both axes give the bits of the rolled stencil (along p the flat
    padded copy, along q its whole-plane slices), for Nq and Np apart, a
    stacked (2, n, n) field, either layout and ``out=`` of either layout."""
    values = random_field(np.random.default_rng(seed), shape + trailing, complex_valued)
    want = diff4_roll(values, axis, h)
    out = None if out_layout is None else laid_out(np.full_like(want, np.nan), out_layout)
    got = _diff4(laid_out(values, layout), axis, h, out)
    assert out is None or got is out
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(shape=grid_sizes, lengths=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0)),
       trailing=st.sampled_from([(), (2, 2)]), seed=seeds)
def test_divergence_sums_to_zero(shape, lengths, trailing, seed):
    grid = PhaseGrid(0.0, lengths[0], -lengths[1], 0.0, *shape)
    rng = np.random.default_rng(seed)
    Fq = random_field(rng, grid.shape + trailing, bool(trailing))
    Fp = random_field(rng, grid.shape + trailing, bool(trailing))
    total = np.sum(grid.partial_q(Fq) + grid.partial_p(Fp), axis=(0, 1))
    scale = max(np.max(np.abs(Fq)) / grid.dq, np.max(np.abs(Fp)) / grid.dp)
    assert np.max(np.abs(total)) <= 16 * EPS * grid.Nq * grid.Np * scale
