"""The buffered kernels and the RK4 driver: ``out=`` gives the bits of a
fresh result, no scratch buffer escapes into a result, the driver's reused
stage arrays give the bits of the out-of-place RK4 formula, and a run in
steady state does not page-fault."""

import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqclab import config as C
from mqclab import grids, presets
from mqclab.diagnostics import make_sample_fn
from mqclab.dynamics import MODELS, StepperConfig, cfl_dt, circle_loop, conditional_rhs, rk4_run
from mqclab.grids import MM_SUMS_MAX, _diff4, mm

from test_kernels import LAYOUTS, diff4_roll, laid_out, random_field, same_bits

grid_sizes = st.tuples(st.integers(8, 16), st.integers(8, 16))
seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
@settings(max_examples=20, deadline=None)
@given(shape=grid_sizes, h=st.floats(1e-3, 10.0), seed=seeds,
       trailing=st.integers(1, 3).flatmap(lambda n: st.sampled_from([(), (n,), (n, 1), (n, n)])))
def test_diff4_out_has_the_bits_of_a_fresh_result(axis, complex_valued, shape, h, seed, trailing):
    values = random_field(np.random.default_rng(seed), shape + trailing, complex_valued)
    fresh = _diff4(values, axis, h)
    buf = np.full_like(fresh, np.nan)
    assert _diff4(values, axis, h, out=buf) is buf
    assert same_bits(buf, fresh)
    assert same_bits(fresh, diff4_roll(values, axis, h))


@pytest.mark.parametrize("complex_valued", [False, True])
@settings(max_examples=20, deadline=None)
@given(shape=grid_sizes, n=st.integers(1, 3), k=st.integers(1, MM_SUMS_MAX + 1),
       m=st.integers(1, 3), seed=seeds, out_layout=st.sampled_from(LAYOUTS))
def test_mm_out_has_the_bits_of_a_fresh_result(complex_valued, shape, n, k, m, seed, out_layout):
    """Each entry summed straight into ``out``, of either layout, has the bits
    of the fresh product."""
    rng = np.random.default_rng(seed)
    A = random_field(rng, shape + (n, k), complex_valued)
    B = random_field(rng, shape + (k, m), complex_valued)
    fresh = mm(A, B)
    buf = laid_out(np.full_like(fresh, np.nan), out_layout)
    assert mm(A, B, out=buf) is buf
    assert same_bits(buf, fresh)


@pytest.mark.parametrize("k", [2, MM_SUMS_MAX + 1])
def test_mm_rejects_an_out_that_overlaps_an_operand(k):
    """``mm`` writes entries into ``out`` while it still reads A and B, so an
    ``out`` sharing memory with either is refused, not silently wrong."""
    rng = np.random.default_rng(k)
    A, B = (random_field(rng, (8, 8, k, k), True) for _ in range(2))
    for out in (A, B, A[..., ::-1, :]):
        with pytest.raises(ValueError, match="overlap"):
            mm(A, B, out=out)


def nanowire_split(N=16):
    cfg = presets.nanowire_conditional(N=N)
    grid = C.build_grid(cfg)
    ham = C.build_hamiltonian(grid, cfg)
    return grid, ham, C.build_initial_state(grid, ham, cfg)


def test_fresh_results_share_no_memory():
    grid, ham, split = nanowire_split()
    first, second = grid.partial_q(split.psi), grid.partial_q(split.psi)
    assert not np.shares_memory(first, second)
    (dD1, dpsi1), _ = conditional_rhs(grid, split.D, split.psi, ham)
    (dD2, dpsi2), _ = conditional_rhs(grid, split.D, split.psi, ham)
    assert not np.shares_memory(dD1, dD2) and not np.shares_memory(dpsi1, dpsi2)
    for name, spec in MODELS.items():
        _, _, state = model_case(name)
        tends1, _ = spec.rhs(state.grid, ham_of(name), spec.unpack(state))
        tends2, _ = spec.rhs(state.grid, ham_of(name), spec.unpack(state))
        assert not any(np.shares_memory(a, b) for a, b in zip(tends1, tends2)), name


@pytest.mark.parametrize("model", ["ehrenfest_conditional", "beyond_ehrenfest"])
def test_scratch_eviction_keeps_the_bits(monkeypatch, model):
    """Past ``SCRATCH_MAX_BYTES`` every scratch buffer is let go: with the
    limit at the largest single buffer of a right-hand side (10-64 KiB at
    16^2), below the sum of them all, the tendencies keep the bits of an
    uncapped call and the buffers kept stay within the limit."""
    _, ham, state = model_case(model)
    spec = MODELS[model]
    monkeypatch.setattr(grids, "_scratch", {})
    monkeypatch.setattr(grids, "_views", {})
    uncapped, _ = spec.rhs(state.grid, ham, spec.unpack(state))
    sizes = [b.nbytes for b in grids._scratch.values()]
    cap = max(sizes)
    assert sum(sizes) > cap  # so the capped call must let buffers go
    monkeypatch.setattr(grids, "_scratch", {})
    monkeypatch.setattr(grids, "_views", {})
    monkeypatch.setattr(grids, "SCRATCH_MAX_BYTES", cap)
    for _ in range(2):  # from empty buffers, then from those the first call kept
        capped, _ = spec.rhs(state.grid, ham, spec.unpack(state))
        assert all(same_bits(a, b) for a, b in zip(capped, uncapped))
        assert sum(b.nbytes for b in grids._scratch.values()) <= cap


# -- the RK4 driver against the out-of-place formula -----------------------------

_CASES = {}


def model_case(model, N=16):
    """(cfg, ham, state) of a small run of ``model``."""
    if model not in _CASES:
        from mqclab.states import compose

        preset = {"mean_field": presets.nanowire_meanfield,
                  "ehrenfest_uhlmann": presets.beyond_nanowire_mixed,
                  "beyond_ehrenfest": presets.beyond_nanowire_mixed}.get(
                      model, presets.nanowire_conditional)
        cfg = preset(N=N)
        if model == "ehrenfest_uhlmann":
            cfg["initial"]["representation"] = "uhlmann"
        grid = C.build_grid(cfg)
        ham = C.build_hamiltonian(grid, cfg)
        state = C.build_initial_state(grid, ham, cfg)
        if MODELS[model].state_type is not type(state):
            state = compose(state)
        _CASES[model] = (cfg, ham, state)
    return _CASES[model]


def ham_of(model):
    return model_case(model)[1]


def reference_rk4(model, state, ham, dt, steps, sample_every, sample_fn, loop):
    """Classic RK4 written out of place, a + c dt k per stage."""
    ops = MODELS[model]
    grid = state.grid
    y = tuple(np.array(a, copy=True) for a in ops.unpack(state))
    n = len(y)
    if loop is not None:
        y += (np.array(loop, dtype=float),)

    def f(arrays):
        tends, velocity = ops.rhs(grid, ham, arrays[:n])
        if loop is not None:
            pts = arrays[-1]
            tends += (grid.interpolate(np.stack(velocity, axis=-1), pts[:, 0], pts[:, 1]),)
        return tends, velocity

    rows, t = [], 0.0
    for step in range(steps + 1):
        sampled = step % sample_every == 0 or step == steps
        k1, velocity = f(y)
        if sampled:
            snap = ops.state_type(grid, *(np.array(a, copy=True) for a in y[:n]))
            rows.append(sample_fn(t, snap, None if loop is None else y[-1].copy(), velocity))
        if step == steps:
            break
        k2, _ = f(tuple(a + 0.5 * dt * k for a, k in zip(y, k1)))
        k3, _ = f(tuple(a + 0.5 * dt * k for a, k in zip(y, k2)))
        k4, _ = f(tuple(a + dt * k for a, k in zip(y, k3)))
        y = tuple(a + (dt / 6.0) * (ka + 2.0 * kb + 2.0 * kc + kd)
                  for a, ka, kb, kc, kd in zip(y, k1, k2, k3, k4))
        t += dt
    return y, rows


def row_bits(row):
    return {k: None if v is None else struct.pack("<d", v) for k, v in row.items()}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("model", list(MODELS))
def test_rk4_has_the_bits_of_the_out_of_place_formula(model, traced):
    _, ham, state = model_case(model)
    loop = circle_loop((0.0, 0.0), 0.5, 32) if traced else None
    dt = cfl_dt(model, state, ham, 0.2)
    steps, every = 6, 3
    sample_fn = make_sample_fn(model, ham, with_loop=traced)
    run = rk4_run(model, state, ham, StepperConfig(dt=dt, steps=steps, sample_every=every),
                  sample_fn=sample_fn, loop=loop)
    assert not run.aborted and len(run.rows) == 3
    y, rows = reference_rk4(model, state, ham, dt, steps, every, sample_fn, loop)
    ops = MODELS[model]
    for got, want in zip(ops.unpack(run.final_state), y):
        assert same_bits(got, want)
    if traced:
        assert same_bits(run.loop_points[-1], y[-1])
    assert [row_bits(r) for r in run.rows] == [row_bits(r) for r in rows]
    assert all(r["antiherm_resid"] is None for r in run.rows)  # kept only in the header


# -- page faults -------------------------------------------------------------------

FAULT_PROBE = textwrap.dedent("""
    import resource
    from mqclab import config as C, presets
    from mqclab.dynamics import StepperConfig, rk4_run

    cfg = presets.nanowire_conditional(N=64)
    grid = C.build_grid(cfg)
    ham = C.build_hamiltonian(grid, cfg)
    state = C.build_initial_state(grid, ham, cfg)
    loop = C.build_loop(cfg, grid)

    def run(steps):
        rk4_run("ehrenfest_conditional", state, ham,
                StepperConfig(dt=0.01, steps=steps, sample_every=steps), loop=loop,
                keep_states=False)

    run(5)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(50)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_rk4_loop_does_not_page_fault():
    """After 5 warm-up steps, 50 more steps of the 64^2 conditional run
    (loop tracer on) reuse their buffers: fewer than 5 minor page faults per
    step, where fresh temporaries took about 350."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("no minor-fault counter on this platform")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, check=True)
    faults = int(proc.stdout.split()[-1])
    assert faults < 5 * 50, f"{faults} minor faults in 50 steps"
