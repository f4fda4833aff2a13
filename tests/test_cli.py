import ast
import contextlib
import errno
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mqclab import HybridDensity, PhaseGrid, read_snapshot, snapshot_lines, write_snapshot
from mqclab import config
from mqclab.cli import _check_out, _study_levels, build_parser, main
from mqclab.config import ConfigError, build_grid, build_hamiltonian, build_initial_state, load_config
from mqclab.diagnostics import read_csv
from mqclab.dynamics import WORK_CAP
from mqclab import presets
from mqclab.probes import aligned_smooth_split, random_smooth_split
from mqclab.states import ConditionalSplit, UhlmannSplit, compose

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_cfg(tmp_path, cfg, name="scenario.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


class TestSnapshots:
    def make_states(self):
        grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 12, 12, hbar=0.7)
        split = aligned_smooth_split(grid)
        # signed zeros in both parts of a complex entry survive the round trip
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = 1.0
        psi[:6, :, 1] = complex(0.0, -0.0)
        psi[6:, :, 1] = complex(-0.0, 0.0)
        signed = ConditionalSplit(grid, np.full(grid.shape, 1.0 / grid.area), psi)
        return [split, compose(split), random_smooth_split(grid, 2, np.random.default_rng(0)),
                signed]

    def test_roundtrip_byte_identical(self, tmp_path):
        for k, state in enumerate(self.make_states()):
            p1 = tmp_path / f"s{k}.snap"
            write_snapshot(p1, state)
            back = read_snapshot(p1)
            p2 = tmp_path / f"s{k}_again.snap"
            write_snapshot(p2, back)
            assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_values_exact(self, tmp_path):
        grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 12, 12)
        split = aligned_smooth_split(grid)
        p = tmp_path / "x.snap"
        write_snapshot(p, split)
        back = read_snapshot(p)
        assert np.array_equal(back.D, split.D)
        assert np.array_equal(back.W, split.W)
        assert back.grid.hbar == grid.hbar

    def test_header_format(self):
        grid = PhaseGrid(-1.0, 1.0, -2.0, 2.0, 12, 16, hbar=0.5)
        psi = np.zeros(grid.shape + (2,), dtype=complex)
        psi[..., 0] = 1.0
        D = np.full(grid.shape, 1.0 / grid.area)
        lines = snapshot_lines(ConditionalSplit(grid, D, psi))
        head = lines[0].split()
        assert head[:3] == ["MQCGRID", "1", "conditional"]
        assert head[3:7] == ["12", "16", "2", "2"]
        assert len(lines) == 1 + 12 * 16

    def test_corrupt_rejected(self, tmp_path):
        p = tmp_path / "bad.snap"
        p.write_text("NOTAMAGIC 1 density 8 8 2 2 0 1 0 1 1\n")
        with pytest.raises(ValueError):
            read_snapshot(p)


# every float a snapshot may hold: abort.snap keeps non-finite states
snapshot_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                     np.nan, np.inf, -np.inf]))


@st.composite
def snapshot_states(draw):
    """A state of random size and representation, read from a float table."""
    rep = draw(st.sampled_from(["density", "conditional", "uhlmann"]))
    Nq, Np, n = draw(st.integers(8, 10)), draw(st.integers(8, 10)), draw(st.integers(1, 3))
    m = {"density": n, "conditional": 1, "uhlmann": draw(st.integers(1, 3))}[rep]
    lead = 0 if rep == "density" else 1
    table = draw(hnp.arrays(float, (Nq * Np, lead + 2 * n * m), elements=snapshot_floats))
    grid = PhaseGrid(-1.0, 1.0, -2.0, 2.0, Nq, Np, hbar=0.7)
    entries = np.ascontiguousarray(table[:, lead:]).view(complex).reshape(Nq, Np, n, m)
    if rep == "density":
        return HybridDensity(grid, entries)
    D = table[:, 0].reshape(Nq, Np)
    return ConditionalSplit(grid, D, entries[..., 0]) if rep == "conditional" else \
        UhlmannSplit(grid, D, entries)


def reference_record_lines(state):
    """The body as one formatted float at a time, "%.17g" per value."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    lines = []
    for i in range(state.grid.Nq):
        for j in range(state.grid.Np):
            if isinstance(state, HybridDensity):
                nums, entries = [], state.P[i, j].reshape(-1)
            else:
                nums, entries = [fmt(state.D[i, j])], state.W[i, j].reshape(-1)
            for z in entries:
                nums += [fmt(z.real), fmt(z.imag)]
            lines.append(" ".join(nums))
    return lines


class TestSnapshotBodies:
    @settings(max_examples=40, deadline=None)
    @given(state=snapshot_states())
    def test_per_value_format_and_roundtrip(self, state):
        lines = snapshot_lines(state)
        assert lines[1:] == reference_record_lines(state)
        with tempfile.TemporaryDirectory() as tmp:
            first, again = os.path.join(tmp, "a.snap"), os.path.join(tmp, "b.snap")
            write_snapshot(first, state)
            write_snapshot(again, read_snapshot(first))
            with open(first, "rb") as fa, open(again, "rb") as fb:
                assert fa.read() == fb.read()

    def written(self, tmp_path):
        grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 8, 9)
        path = tmp_path / "s.snap"
        write_snapshot(path, random_smooth_split(grid, 2, np.random.default_rng(1)))
        return path, path.read_text().splitlines()

    def test_truncated_body_names_the_record(self, tmp_path):
        path, lines = self.written(tmp_path)
        path.write_text("\n".join(lines[:1 + 20]) + "\n")  # records (0,0)..(2,1)
        with pytest.raises(ValueError, match=r"record \(2,2\) has 0 numbers, expected 9"):
            read_snapshot(path)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_wrong_count_names_the_record(self, tmp_path, extra):
        path, lines = self.written(tmp_path)
        nums = lines[1 + 13].split()  # record (1,4)
        lines[1 + 13] = " ".join(nums + ["0"] if extra > 0 else nums[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"record \(1,4\) has {9 + extra} numbers, "
                                             r"expected 9"):
            read_snapshot(path)


class TestConfig:
    def test_missing_key_path(self, tmp_path):
        cfg = presets.nanowire_conditional(N=16)
        del cfg["domain"]["q1"]
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            build_grid(load_config(path))
        assert "domain.q1" in str(err.value)

    def test_cli_missing_key_exits_1(self, tmp_path, capsys):
        cfg = presets.nanowire_conditional(N=16)
        del cfg["hamiltonian"]["kind"]
        path = write_cfg(tmp_path, cfg)
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert "hamiltonian.kind" in capsys.readouterr().err

    # A case is the key path the CLI must report, or "path=value" where a
    # second case sets the same key to another invalid value.
    @pytest.mark.parametrize("case", ["model", "hamiltonian.kind", "grid.Nq",
                                      "equilibrium.representation", "domain.q1", "domain.p1",
                                      "physics.hbar", "initial.density.center",
                                      "equilibrium.representation=foo", "equilibrium.E",
                                      "equilibrium.branch", "initial.density",
                                      "initial.density=-0.5", "initial.density=zero_mass",
                                      "initial.density=mean_field",
                                      "time.t_final", "time.dt", "time.cfl=0",
                                      "time.cfl=x", "time.sample_every", "time.steps",
                                      "time.sample_every=x", "equilibrium.T_check",
                                      "equilibrium.E=1e6", "hamiltonian", "equilibrium.mu",
                                      "diagnostics.loop", "diagnostics.loop.center",
                                      "diagnostics.loop.points", "diagnostics.loop.points=-5",
                                      "diagnostics.loop.points=0", "diagnostics.loop.points=1",
                                      "diagnostics.loop.points=2", "diagnostics.loop.radius=0",
                                      "diagnostics.functionals",
                                      "diagnostics.renyi_alpha=x",
                                      "diagnostics.renyi_alpha=1.0",
                                      "diagnostics.c2_sigma", "diagnostics.probes_seed",
                                      "diagnostics.probes_seed=-1",
                                      "diagnostics.n_probes", "initial.density.uniform_weight",
                                      "initial.state.amplitude", "initial.state.vector",
                                      "initial.state.vector=[[0,0],[0,0]]",
                                      "initial.state.branch", "hamiltonian.mass",
                                      "hamiltonian.mass=0", "hamiltonian.eta", "hamiltonian.B",
                                      "initial.waveop.weights",
                                      "initial.waveop.weights=[0, 0]", "hamiltonian.H_Q",
                                      "hamiltonian.coeffs", "initial.rho.matrix",
                                      "initial.rho.matrix=[[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]",
                                      "hamiltonian.H_Q=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
                                      "initial.snapshot", "initial.snapshot=truncated",
                                      "initial.snapshot=directory",
                                      "initial.snapshot=oversized",
                                      "initial.snapshot=entangled",
                                      "initial.snapshot=negative",
                                      "initial.snapshot=m0", "initial.snapshot=massless",
                                      "grid.n=3", "grid.n=0",
                                      "initial.compose_from=density",
                                      "initial.compose_from=bogus"])
    def test_cli_invalid_value_exits_1_with_key_path(self, tmp_path, capsys, case):
        key, _, value = case.partition("=")
        # the preset that reads the key, when the nanowire does not
        cfg = {"initial.waveop.weights": presets.beyond_nanowire_mixed,
               "hamiltonian.H_Q": presets.classical_well,
               "hamiltonian.coeffs": presets.zeta_sigma_z,
               "initial.rho.matrix": presets.nanowire_meanfield,
               "initial.compose_from": presets.uncoupled_factorized,
               }.get(key, presets.nanowire_conditional)(N=16)
        command, extra = "simulate", []
        if key.startswith("equilibrium."):
            cfg = presets.dephasing_equilibrium(N=32)
            command = "equilibrium"
        # the invalid value set at the key itself, unless the case gives one
        value = yaml.safe_load(value) if value else {
            "time.t_final": -1, "time.dt": -0.01, "time.sample_every": 0, "time.steps": -1,
            "equilibrium.T_check": "x",
            "diagnostics.loop": 5, "diagnostics.loop.center": 5, "diagnostics.loop.points": "x",
            "diagnostics.functionals": 5, "diagnostics.c2_sigma": "foo",
            "diagnostics.probes_seed": "x", "diagnostics.n_probes": 0,
            "initial.density.uniform_weight": "x", "initial.state.amplitude": "x",
            "initial.state.vector": "x", "initial.state.branch": 7, "hamiltonian.mass": "x",
            "hamiltonian.eta": "x", "hamiltonian.B": [1, 2], "initial.waveop.weights": ["x", 1],
            "hamiltonian.H_Q": [[0, 1], [2, 0]], "hamiltonian.coeffs": 5,
            "initial.rho.matrix": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}.get(key)
        if key in ("diagnostics.probes_seed", "diagnostics.n_probes", "grid.n"):
            command = "casimir-check"
        if case == "time.sample_every=x":  # the convergence study reads the stride first
            command, extra = "convergence", ["--levels", "2"]
        if key == "time.steps":  # a fixed step count needs a fixed dt
            cfg["time"] = {"dt": 0.01}
        if key == "initial.state.amplitude":
            cfg["initial"]["state"] = {"profile": "twisted"}
        elif key == "initial.state.branch":
            cfg["initial"]["state"] = {"profile": "eigen"}
        if key.startswith(("time.", "diagnostics.", "initial.state.", "initial.waveop.",
                           "initial.rho.")) or key in (
                "equilibrium.T_check", "initial.density.uniform_weight", "hamiltonian.mass",
                "hamiltonian.eta", "hamiltonian.B", "hamiltonian.H_Q", "hamiltonian.coeffs",
                "grid.n", "initial.compose_from"):
            *parents, leaf = key.split(".")
            node = cfg
            for part in parents:
                node = node[part]
            node[leaf] = value
        elif case == "equilibrium.E=1e6":  # outside the attainable range
            cfg = presets.dephasing_equilibrium(N=16)
            del cfg["equilibrium"]["mu"]
            cfg["equilibrium"]["E"] = 1e6
        elif key == "equilibrium.mu":  # so hot that Gibbs mass reaches the domain seam
            cfg = presets.harmonic_gibbs(N=16)
            del cfg["equilibrium"]["E"]
            cfg["equilibrium"]["mu"] = 1e-4
        elif key == "hamiltonian":  # H = q sigma_z: the branches cross at q = 0
            cfg = presets.zeta_sigma_z(N=16)
            cfg["hamiltonian"]["zeta"] = "coordinate_q"
            cfg["hamiltonian"]["coeffs"] = [[[0.0, 0.0], [0.0, 0.0]], "sigma_z"]
            command = "equilibrium"
        elif key == "model":  # a density model on a conditional initial state
            extra = ["--model", "ehrenfest_density"]
        elif key == "hamiltonian.kind":
            cfg["hamiltonian"]["kind"] = "frobnicate"
        elif key == "grid.Nq":
            cfg["grid"]["Nq"] = 4
        elif case == "equilibrium.representation":  # no Uhlmann closed form for dephasing
            cfg["equilibrium"]["representation"] = "uhlmann"
        elif case == "equilibrium.representation=foo":
            cfg["equilibrium"]["representation"] = "foo"
        elif key == "equilibrium.E":  # E next to the preset's mu
            cfg["equilibrium"]["E"] = 0.5
        elif key == "equilibrium.branch":
            cfg["equilibrium"]["branch"] = 5
        elif key in ("domain.q1", "domain.p1"):  # an empty interval
            hi = key.split(".")[1]
            cfg["domain"][hi] = cfg["domain"][hi[0] + "0"]
        elif key == "physics.hbar":
            cfg["physics"]["hbar"] = 0
        elif case == "initial.snapshot=directory":
            cfg["initial"]["snapshot"] = str(tmp_path)
        elif case == "initial.snapshot=oversized":  # a header naming 1e30 records, none
            # written: once a 7.11 PiB MemoryError, the header's grid built before the body
            snap = tmp_path / "restart.snap"
            snap.write_text("MQCGRID 1 conditional 1000000000000000 1000000000000000 2 2 "
                            "-3.14 3.14 -3.14 3.14 1\n")
            cfg["initial"]["snapshot"] = str(snap)
        elif value in ("m0", "massless"):  # an Uhlmann header with m = 0 (one D per
            # record), or a conditional state whose records are all zero
            grid = build_grid(cfg)
            rep, m, record = ("uhlmann", 0, "1") if value == "m0" else ("conditional", 2, "0 0 0 0 0")
            bounds = " ".join("%.17g" % v for v in (grid.q0, grid.q1, grid.p0, grid.p1, grid.hbar))
            snap = tmp_path / "restart.snap"
            snap.write_text(f"MQCGRID 1 {rep} {grid.Nq} {grid.Np} 2 {m} {bounds}\n"
                            + f"{record}\n" * (grid.Nq * grid.Np))
            if value == "m0":
                extra = ["--model", "ehrenfest_uhlmann"]
            cfg["initial"]["snapshot"] = str(snap)
        elif key == "initial.snapshot":  # a three-level state, a truncated body, a
            # density that is no product D rho for a mean-field run, or one not PSD
            if value == "entangled":
                cfg = presets.nanowire_meanfield(N=16)
            grid = build_grid(cfg)
            n = 3 if value is None else 2
            snap = tmp_path / "restart.snap"
            P = np.broadcast_to(np.eye(n) / (n * grid.area), grid.shape + (n, n)).copy()
            if value == "entangled":  # rho = diag(cos^2, sin^2)(q/2) varies over the grid
                P[..., 0, 0] = np.cos(grid.Q / 2) ** 2 / grid.area
                P[..., 1, 1] = np.sin(grid.Q / 2) ** 2 / grid.area
            if value == "negative":  # P = diag(1.5, -0.5) / area, run as a density
                P[..., 0, 0], P[..., 1, 1] = 1.5 / grid.area, -0.5 / grid.area
                extra = ["--model", "ehrenfest_density"]
            write_snapshot(snap, HybridDensity(grid, P))
            if value == "truncated":
                snap.write_text("".join(snap.read_text().splitlines(True)[:10]))
            cfg["initial"]["snapshot"] = str(snap)
        elif case == "initial.density":
            cfg["initial"]["density"] = 5
        elif case == "initial.density=zero_mass":  # two bumps at one center, weights 1, -1
            cfg["initial"]["density"] = {"profile": "double_gaussian", "bumps": [
                {"center": [0.0, 1.0], "weight": 1.0}, {"center": [0.0, 1.0], "weight": -1.0}]}
        elif key == "initial.density":  # a second bump of negative weight: min D < 0
            if value == "mean_field":  # the same bump in a mean-field run
                cfg, value = presets.nanowire_meanfield(N=16), -0.5
            cfg["initial"]["density"] = {"profile": "double_gaussian", "bumps": [
                {"center": [-1.0, 0.0], "sigma": [0.5, 0.5]},
                {"center": [1.0, 0.0], "sigma": [0.5, 0.5], "weight": value}]}
        else:
            cfg["initial"]["density"]["center"] = 5
        path = write_cfg(tmp_path, cfg)
        code = main([command, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]
                    + extra)
        assert code == 1
        assert capsys.readouterr().err.rstrip().endswith(f": {key}")

    def test_initial_state_builders(self, tmp_path):
        for maker in (presets.nanowire_conditional, presets.nanowire_meanfield,
                      presets.beyond_nanowire_mixed, presets.classical_well,
                      presets.uncoupled_factorized, presets.zeta_sigma_z):
            cfg = maker(N=16)
            grid = build_grid(cfg)
            ham = build_hamiltonian(grid, cfg)
            state = build_initial_state(grid, ham, cfg)
            assert state is not None

    @pytest.mark.parametrize("maker", [presets.nanowire_conditional, presets.beyond_nanowire_mixed])
    def test_generated_split_with_negative_density_exits_at_its_key(self, maker):
        """A generated conditional or Uhlmann state is validated: a density
        profile that dips below zero fails at ``initial.density``, also when
        the state is composed into a density."""
        cfg = maker(N=16)
        cfg["initial"]["density"] = {"profile": "double_gaussian", "bumps": [
            {"center": [-1.0, 0.0], "sigma": [0.5, 0.5]},
            {"center": [1.0, 0.0], "sigma": [0.5, 0.5], "weight": -0.5}]}
        grid = build_grid(cfg)
        with pytest.raises(ConfigError) as err:
            build_initial_state(grid, build_hamiltonian(grid, cfg), cfg)
        assert err.value.path == "initial.density"

    def test_cfl_time_stepping(self):
        cfg = presets.nanowire_conditional(N=16)
        from mqclab.config import build_stepper, model_of

        grid = build_grid(cfg)
        ham = build_hamiltonian(grid, cfg)
        state = build_initial_state(grid, ham, cfg)
        st = build_stepper(cfg, grid, ham, model_of(cfg), state)
        assert st.dt * st.steps == pytest.approx(cfg["time"]["t_final"])


# -- one bad key at a time ---------------------------------------------------

# The presets of the scenario fuzz, each read at N = 16 with a short run.
FUZZ_PRESETS = ("nanowire_conditional", "nanowire_meanfield", "dephasing_equilibrium",
                "harmonic_gibbs", "uncoupled_factorized", "beyond_nanowire_mixed",
                "zeta_sigma_z", "classical_well")
# Values drawn for one key; DELETE removes it. BIG, drawn too, asks for more
# RK4 steps or probes than the work cap allows when it sets a domain bound,
# t_final, a speed or n_probes, and more loop points than the grid has nodes
# when it sets diagnostics.loop.points; it is not drawn for the keys that
# size an array (ALLOCATING_KEYS), which would allocate against the machine's
# memory (a 1e6 x 16 grid, see test_oversized_grid_exits_1_in_a_capped_child).
DELETE = "<delete>"
BIG = 1e6
FUZZ_VALUES = (None, -1, 0, 1, 2.5, -0.5, "x", "false", [], [1], {}, True, float("nan"),
               float("inf"), [[1.0, 0.0], [0.0, 1.0]], "mean_field", "density", DELETE)
ALLOCATING_KEYS = ("grid.Nq", "grid.Np")


def short_run(preset):
    """The preset at N = 16, with a short run, certificate and probe count."""
    cfg = getattr(presets, preset)(N=16)
    if "time" in cfg:
        cfg["time"]["t_final"] = 0.1
    if "equilibrium" in cfg:
        cfg["equilibrium"]["T_check"] = 0.3
    if "diagnostics" in cfg:
        cfg["diagnostics"]["n_probes"] = 2
    return cfg


def key_paths(node, prefix=""):
    """Every key path of a config, mappings included."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")


def commands_of(cfg):
    """The commands the unchanged preset runs to exit 0."""
    return (["casimir-check"] + (["simulate"] if "model" in cfg else [])
            + (["equilibrium"] if "equilibrium" in cfg else []))


def run_with(preset, path, value, command):
    """Exit code and stderr of ``command`` on the short preset with ``path``
    set to ``value`` (or deleted)."""
    cfg = short_run(preset)
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    if value == DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main([command, "--config", write_cfg(pathlib.Path(tmp), cfg), "--out",
                     os.path.join(tmp, "out"), "--quiet"])
    return code, err.getvalue().strip()


# A bad key may also be reported at a key it depends on: a bound and its
# partner, dt or cfl and steps or t_final, E or mu, the sections a
# representation reads and the model that evolves it, the columns of the wave
# operator, and the Gibbs problem of the Hamiltonian on the domain.
DEPENDS = (("domain.", "domain."), ("time.", "time."), ("equilibrium.", "equilibrium."),
           ("initial.representation", "initial."), ("initial.representation", "model"),
           ("initial.compose_from", "initial."),
           ("grid.m", "initial.waveop"), ("domain.", "equilibrium."),
           ("hamiltonian", "equilibrium."))
# Above the work cap alone, a domain bound or a Hamiltonian key may also be
# reported at t_final, whose step count at the CFL step of the speed they
# give is what the cap refuses.
CAPPED_AT = (("domain.", "time.t_final"), ("hamiltonian", "time.t_final"))


def reported_at(drawn, reported, message):
    """Whether an error at ``reported`` with ``message`` names the drawn key,
    one of its parents or children, or a key it depends on."""
    if reported == drawn or drawn.startswith(reported + ".") or \
            reported.startswith(drawn + "."):
        return True
    pairs = DEPENDS + (CAPPED_AT if "above the cap" in message else ())
    return any(drawn.startswith(a) and reported.startswith(b) for a, b in pairs)


@st.composite
def bad_keys(draw):
    preset = draw(st.sampled_from(FUZZ_PRESETS))
    cfg = short_run(preset)
    path = draw(st.sampled_from(sorted(key_paths(cfg))))
    values = FUZZ_VALUES if path in ALLOCATING_KEYS else FUZZ_VALUES + (BIG,)
    return (preset, path, draw(st.sampled_from(values)), draw(st.sampled_from(commands_of(cfg))))


class TestOneBadKey:
    # The explicit examples ended in a traceback before every key went
    # through one reader, at one source line each, or (BIG) ran without end
    # before the work cap. The two lines reached by a grid of 1e6 points (a
    # MemoryError) are tested in a capped child below.
    @settings(max_examples=150, deadline=None)
    @given(case=bad_keys())
    @example(case=("nanowire_conditional", "grid.Nq", float("inf"), "casimir-check"))
    @example(case=("nanowire_conditional", "time.t_final", float("inf"), "simulate"))
    @example(case=("nanowire_conditional", "domain.p1", float("inf"), "simulate"))
    @example(case=("dephasing_equilibrium", "domain.q1", float("inf"), "equilibrium"))
    @example(case=("zeta_sigma_z", "initial.state.branch", float("inf"), "simulate"))
    @example(case=("dephasing_equilibrium", "hamiltonian.h_i.amplitude", "x", "simulate"))
    @example(case=("harmonic_gibbs", "hamiltonian.h_0.omega", None, "equilibrium"))
    @example(case=("dephasing_equilibrium", "hamiltonian.h_0.omega", None, "equilibrium"))
    @example(case=("nanowire_conditional", "hamiltonian.mass", None, "simulate"))
    @example(case=("nanowire_conditional", "hamiltonian.eta", None, "simulate"))
    @example(case=("nanowire_conditional", "model", [], "simulate"))
    @example(case=("dephasing_equilibrium", "hamiltonian.h_0", 1, "simulate"))
    @example(case=("nanowire_meanfield", "initial.rho.state", -1, "simulate"))
    @example(case=("harmonic_gibbs", "hamiltonian.h_0.omega", 0, "casimir-check"))
    @example(case=("nanowire_conditional", "hamiltonian.eta", BIG, "simulate"))
    @example(case=("dephasing_equilibrium", "equilibrium.T_check", BIG, "equilibrium"))
    def test_exits_0_1_or_2_and_1_names_the_key(self, case):
        """Any one key set to a bad value (or deleted) succeeds, exits 2 on a
        numerical abort, or exits 1 naming the key or a key it depends on;
        it never ends in a traceback."""
        preset, path, value, command = case
        code, err = run_with(preset, path, value, command)
        assert code in (0, 1, 2), err
        if code == 1:
            assert err.startswith("config error:"), err
            assert reported_at(path, err.rsplit(": ", 1)[-1], err), err

    @pytest.mark.parametrize("preset, path, value, command, reported", [
        # booleans are YAML booleans: each string used to count as true
        ("nanowire_conditional", "time.renormalize", "false", "simulate", None),
        ("dephasing_equilibrium", "equilibrium.certify", "false", "equilibrium", None),
        ("nanowire_conditional", "hamiltonian.trig", "x", "simulate", None),
        # a floor weight above 1 made D negative, and the run exited 0
        ("nanowire_conditional", "initial.density.uniform_weight", 2.5, "simulate", None),
        # a section is a mapping: one that is not used to be read as empty
        ("nanowire_conditional", "physics", "x", "simulate", None),
        # numbers are finite: a NaN alpha used to write a NaN renyi_alpha column
        ("nanowire_conditional", "diagnostics.renyi_alpha", float("nan"), "simulate", None),
        # Renyi orders are positive: -1 wrote an inf column, and 0 counted each
        # zero eigenvalue as 0**0 = 1 (4.3689 on this state, against 3.6758 at 1e-6)
        ("nanowire_meanfield", "diagnostics.renyi_alpha", -1, "simulate", None),
        ("nanowire_meanfield", "diagnostics.renyi_alpha", 0, "simulate", None),
        # a profile without its name, once reported at hamiltonian.profile.name
        ("classical_well", "hamiltonian.h_c", {"amplitude": 1.0}, "simulate",
         "hamiltonian.h_c.name"),
        # once tracebacks: an unhashable model, non-finite numbers, a string amplitude
        ("nanowire_conditional", "model", [], "simulate", None),
        ("nanowire_conditional", "grid.Nq", float("inf"), "casimir-check", None),
        ("nanowire_conditional", "time.t_final", float("inf"), "simulate", None),
        ("nanowire_conditional", "domain.q1", float("inf"), "simulate", None),
        ("zeta_sigma_z", "initial.state.branch", float("inf"), "simulate", None),
        ("dephasing_equilibrium", "equilibrium.T_check", float("inf"), "equilibrium", None),
        ("dephasing_equilibrium", "hamiltonian.h_i.amplitude", "x", "simulate", None),
        ("beyond_nanowire_mixed", "grid.m", 3, "simulate", None),
        # mu = 0 used to exit 0 with a null marina residual, which divides by mu
        ("dephasing_equilibrium", "equilibrium.mu", 0, "equilibrium", None),
    ])
    def test_bad_value_exits_1_at_its_key(self, preset, path, value, command, reported):
        code, err = run_with(preset, path, value, command)
        assert code == 1, err
        assert err.startswith("config error:") and err.endswith(f": {reported or path}"), err

    # A speed, a time or a count of 1e6 each asked for a million or more RK4
    # steps or probes, and the run went on past any alarm; 1e6 loop points
    # took 5.9 s and 697 MB on a 16 x 16 grid.
    @pytest.mark.parametrize("preset, path, command, reported", [
        ("nanowire_conditional", "hamiltonian.eta", "simulate", "time.t_final"),
        ("uncoupled_factorized", "time.t_final", "simulate", "time.t_final"),
        ("uncoupled_factorized", "hamiltonian.h_c.omega", "simulate", "time.t_final"),
        ("beyond_nanowire_mixed", "domain.p1", "simulate", "time.t_final"),
        ("nanowire_conditional", "diagnostics.n_probes", "casimir-check", None),
        ("dephasing_equilibrium", "diagnostics.n_probes", "casimir-check", None),
        ("beyond_nanowire_mixed", "diagnostics.n_probes", "casimir-check", None),
        ("dephasing_equilibrium", "equilibrium.T_check", "equilibrium", None),
        ("nanowire_conditional", "diagnostics.loop.points", "simulate", None),
    ])
    def test_a_run_above_the_work_cap_exits_1_in_a_timed_child(self, tmp_path, preset, path,
                                                                 command, reported):
        """A value of 1e6 that asks for more work than ``dynamics.WORK_CAP``
        exits 1 at the key that set the step or probe count, giving the
        count, before any step; so do 1e6 loop points, above the grid's
        node count. Each case is a child given 20 s."""
        cfg = short_run(preset)
        *parents, leaf = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[leaf] = 1000000
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get(
            "PYTHONPATH")])), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        child = subprocess.run([sys.executable, "-m", "mqclab", command, "--config",
                                write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"),
                                "--quiet"], capture_output=True, text=True, env=env, timeout=20)
        err = child.stderr.strip()
        assert child.returncode == 1, err
        assert err.startswith("config error:") and err.endswith(f": {reported or path}"), err
        assert "above the cap" in err
        count = err.split(": ", 1)[1].split()[0]
        assert count.isdigit() and int(count) > 1000, err

    @pytest.mark.parametrize("preset, key", [("nanowire_conditional", "grid.Nq"),
                                             ("zeta_sigma_z", "grid.Np")])
    def test_oversized_grid_exits_1_in_a_capped_child(self, tmp_path, preset, key):
        """A grid of 1e6 x 16 points, whose (N, N, 2, 2) fields take 977 MiB
        each, exits 1 at its larger axis. The run is a child that caps its own
        address space at 1 GiB, so nothing allocates against the machine's
        memory (before, it ended in a MemoryError)."""
        cfg = presets.nanowire_conditional(N=16) if preset == "nanowire_conditional" else \
            presets.zeta_sigma_z(N=16)
        cfg["grid"][key.split(".")[1]] = 1000000
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from mqclab.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        child = subprocess.run([sys.executable, "-c", script, "simulate", "--config",
                                write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"),
                                "--quiet"], capture_output=True, text=True, env=env,
                               timeout=300)
        assert child.returncode == 1, child.stderr
        assert child.stderr.rstrip().endswith(f"do not fit in memory: {key}"), child.stderr


@pytest.mark.parametrize("argv, named", [
    (["simulate"], "--config"),
    (["simulate-all", "--config", "scenario.yaml"], "command"),
    (["convergence", "--config", "scenario.yaml", "--levels", "0"], "--levels"),
    (["convergence", "--config", "scenario.yaml", "--levels", "-2"], "--levels"),
    (["convergence", "--config", "scenario.yaml", "--levels", "two"], "--levels"),
])
def test_a_usage_error_exits_1_naming_the_flag_and_writes_nothing(tmp_path, capsys, argv, named):
    """A usage error exits 1, as a configuration error does (argparse's 2 is
    the numerical abort's code), naming the argument; a --levels below 1
    used to run a study of no level, exit 0 and write an empty table."""
    cfg_path = write_cfg(tmp_path, presets.nanowire_conditional(N=16, loop=False))
    argv = [cfg_path if a == "scenario.yaml" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("mqclab") and "error: " in err and named in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["--out is a file", "--out under a file", "config is a directory",
                                  "malformed YAML", "config not UTF-8"])
def test_an_unusable_path_exits_1_naming_it(tmp_path, case):
    """An --out or --config path that cannot be used exits 1 with a config
    error that names it, not a traceback (each ended in an uncaught
    FileExistsError, NotADirectoryError, IsADirectoryError, YAML scanner
    error or UnicodeDecodeError)."""
    cfg = write_cfg(tmp_path, short_run("nanowire_conditional"))
    out = str(tmp_path / "out")
    afile = tmp_path / "afile"
    afile.write_text("x")
    if case == "--out is a file":
        out = named = str(afile)
    elif case == "--out under a file":
        out = named = str(afile / "out")
    elif case == "config is a directory":
        cfg = named = str(tmp_path)
    else:
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"grid: [16\nmodel: :\n" if case == "malformed YAML" else b"\xff\xfegrid")
        cfg = named = str(bad)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-m", "mqclab", "casimir-check", "--config", cfg,
                            "--out", out, "--quiet"], capture_output=True, text=True, env=env,
                           timeout=60)
    err = child.stderr.strip()
    assert "Traceback" not in err and child.returncode == 1, err
    assert err.startswith("config error:") and named in err, err


def test_a_log_casimir_off_its_domain_exits_2_naming_it(tmp_path):
    """At hbar 1e6 the probe split's Lambda / D is negative, where the log
    Casimirs are undefined: casimir-check exits 2 naming the first of them
    and a grid point, and warns of nothing (the child turns a RuntimeWarning
    into an error). It used to warn, report them as NaN and exit 0."""
    cfg = presets.nanowire_conditional(N=16)
    cfg["physics"]["hbar"] = 1e6
    cfg["diagnostics"]["n_probes"] = 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mqclab",
                            "casimir-check", "--config", write_cfg(tmp_path, cfg), "--out",
                            str(tmp_path / "out"), "--quiet"], capture_output=True, text=True,
                           env=env, timeout=120)
    err = child.stderr.strip()
    assert child.returncode == 2, err
    assert err.startswith("numerical abort: C_general_entropy: Lambda / D = -"), err
    assert "at grid point (" in err and "log" in err, err


OUT_COMMANDS = [("simulate", "nanowire_conditional"), ("equilibrium", "dephasing_equilibrium"),
                ("casimir-check", "nanowire_conditional"), ("convergence", "nanowire_conditional")]


def no_numerics(*args, **kwargs):
    raise AssertionError("the grid was built")


@pytest.mark.parametrize("command, preset", OUT_COMMANDS)
@pytest.mark.parametrize("under", [False, True])
def test_an_unusable_out_exits_1_before_any_numerical_work(tmp_path, capsys, monkeypatch,
                                                          command, preset, under):
    """An --out that is a file, or lies under one, exits 1 with the OSError
    that making it would raise once the config is read, before the grid is
    built (the equilibrium, the probes and the convergence levels used to
    run to the end first)."""
    cfg = write_cfg(tmp_path, short_run(preset))
    afile = tmp_path / "afile"
    afile.write_text("x")
    out = str(afile / "out" if under else afile)
    monkeypatch.setattr(config, "build_grid", no_numerics)
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 1
    err = capsys.readouterr().err.strip()
    code = errno.ENOTDIR if under else errno.EEXIST
    assert err == f"config error: [Errno {code}] {os.strerror(code)}: '{out}'", err
    assert afile.read_text() == "x"


@pytest.mark.parametrize("command, preset", OUT_COMMANDS)
def test_an_empty_out_exits_1_before_any_numerical_work(tmp_path, capsys, monkeypatch, command,
                                                        preset):
    """``--out ""`` names no directory: it exits 1 with the ENOENT that
    making it would raise, before the grid is built (read as the current
    directory, it used to pass the check and fail only once the work was
    done)."""
    cfg = write_cfg(tmp_path, short_run(preset))
    monkeypatch.setattr(config, "build_grid", no_numerics)
    assert main([command, "--config", cfg, "--out", "", "--quiet"]) == 1
    code = errno.ENOENT
    assert capsys.readouterr().err.strip() == f"config error: [Errno {code}] {os.strerror(code)}: ''"


def test_the_out_check_makes_nothing_and_refuses_an_unwritable_parent(tmp_path, monkeypatch):
    """``--out`` is checked without being made: a new nested path passes and
    is not created; a path whose nearest existing directory cannot be
    written in raises the PermissionError that making it would."""
    fresh = tmp_path / "new" / "deeper"
    _check_out(str(fresh))
    assert not (tmp_path / "new").exists()
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path))
    with pytest.raises(PermissionError, match="Permission denied"):
        _check_out(str(fresh))


# -- the reader is the only place a config value is parsed -------------------

# The config names ``cli`` may call: the builders, which read every key.
CONFIG_BUILDERS = {"load_config", "build_grid", "build_hamiltonian", "build_initial_state",
                   "build_stepper", "build_loop", "build_sample_fn", "build_problem",
                   "model_of", "probe_spec", "time_spec", "rescaled", "certificate_time",
                   "problem_path", "ConfigError"}


def config_value_parses(tree, module):
    """Lines of ``module`` that parse a config value outside ``config``'s
    reader. In ``hamiltonians``: a ``.get`` or ``.pop`` call, or ``float``,
    ``int`` or ``bool`` of a name, a subscript or a ``.get``. In ``cli``: an
    index into ``cfg``, or a call on the config module (``C`` or ``Cmod``)
    to anything but its builders."""
    found = []
    for node in ast.walk(tree):
        if module == "cli":
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg" or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) in ("C", "Cmod")
                    and node.func.attr not in CONFIG_BUILDERS):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("get", "pop"):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "int",
                                                                               "bool"):
            arg = node.args[0] if node.args else None
            if isinstance(arg, (ast.Name, ast.Subscript)) or (
                    isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "get"):
                found.append(node.lineno)
    return found


def test_no_config_value_parsed_outside_the_reader():
    """``hamiltonians`` receives typed values and ``cli`` takes what it needs
    from the objects ``config`` builds: neither parses a config value."""
    root = pathlib.Path(SRC) / "mqclab"
    for module in ("hamiltonians", "cli"):
        tree = ast.parse((root / f"{module}.py").read_text())
        assert config_value_parses(tree, module) == [], module
    # the guard flags the parses these modules used to make
    for module, line in (("hamiltonians", 'amp = float(params.get("amplitude", 1.0))'),
                         ("hamiltonians", 'mode = int(params.get("mode", 1))'),
                         ("hamiltonians", "pc = float(center_p)"),
                         ("hamiltonians", 'kind = spec.pop("kind", None)'),
                         ("cli", 'certify = bool(Cmod.get(cfg, "equilibrium.certify", True))'),
                         ("cli", 'T_check = Cmod.positive(cfg, "equilibrium.T_check")'),
                         ("cli", 'scaled["grid"]["Nq"] = cfg["grid"]["Nq"] * f')):
        assert config_value_parses(ast.parse(line), module), line


class TestSimulateCommand:
    def test_zero_hamiltonian_constant_columns(self, tmp_path):
        cfg = presets.nanowire_conditional(N=16, t_final=0.5, sample_every=2, loop=False)
        cfg["hamiltonian"] = {"kind": "uncoupled", "h_c": "zero",
                             "H_Q": [[0.0, 0.0], [0.0, 0.0]]}
        cfg["time"] = {"dt": 0.05, "steps": 10, "sample_every": 2}
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
        cols = read_csv(os.path.join(out, "diagnostics.csv"))
        for name in ("mass", "energy", "S_pure", "purity"):
            vals = cols[name]
            assert np.nanmax(np.abs(vals - vals[0])) < 1e-14
        assert os.path.exists(os.path.join(out, "initial.snap"))
        assert os.path.exists(os.path.join(out, "final.snap"))
        meta = json.load(open(os.path.join(out, "meta.json")))
        assert meta["flags"]["aborted"] is False

    @pytest.mark.parametrize("model", ["mean_field", "ehrenfest_conditional",
                                       "ehrenfest_density", "beyond_ehrenfest",
                                       "ehrenfest_uhlmann"])
    def test_restart_continues_the_run(self, tmp_path, model):
        """A run restarted from its own final snapshot for T ends where one run
        of 2T ends, within 1e-12 of max|field| (a mean-field run's snapshot
        is the density D rho); the snapshot passes the restart's physics check."""
        preset, dt = {"mean_field": (presets.nanowire_meanfield, 0.02),
                      "ehrenfest_conditional": (presets.nanowire_conditional, 0.02),
                      "ehrenfest_density": (presets.uncoupled_factorized, 0.02),
                      "beyond_ehrenfest": (presets.beyond_nanowire_mixed, 0.01),
                      "ehrenfest_uhlmann": (presets.nanowire_conditional, 0.02)}[model]
        cfg = preset(N=16)
        if model == "ehrenfest_uhlmann":
            cfg["model"] = model
            cfg["initial"] = {"representation": "uhlmann", "density": cfg["initial"]["density"],
                              "waveop": {"profile": "eigen_mix", "weights": [0.7, 0.3]}}
        assert cfg["model"] == model
        cfg["time"] = {"dt": dt, "steps": 20, "sample_every": 10}
        first, whole, rest = (str(tmp_path / tag) for tag in ("first", "whole", "rest"))
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg, "first.yaml"),
                     "--out", first, "--quiet"]) == 0
        twice = {**cfg, "time": {**cfg["time"], "steps": 40}}
        assert main(["simulate", "--config", write_cfg(tmp_path, twice, "whole.yaml"),
                     "--out", whole, "--quiet"]) == 0
        cfg["initial"] = {"representation": cfg["initial"]["representation"],
                          "snapshot": os.path.join(first, "final.snap")}
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg, "rest.yaml"),
                     "--out", rest, "--quiet"]) == 0
        want = read_snapshot(os.path.join(whole, "final.snap"))
        got = read_snapshot(os.path.join(rest, "final.snap"))
        assert type(got) is type(want)
        for name in ("P",) if isinstance(want, HybridDensity) else ("D", "W"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_restart_at_another_hbar_exits_1_naming_both(self, tmp_path, capsys):
        """A snapshot written at hbar 1 does not restart a run configured at
        hbar 0.25: it exits 1 at initial.snapshot, naming both values."""
        cfg = presets.nanowire_conditional(N=16, loop=False)
        cfg["time"] = {"dt": 0.05, "steps": 4, "sample_every": 2}
        first, rest = tmp_path / "first", tmp_path / "rest"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg, "first.yaml"),
                     "--out", str(first), "--quiet"]) == 0
        cfg["physics"] = {"hbar": 0.25}
        cfg["initial"] = {"representation": "conditional", "snapshot": str(first / "final.snap")}
        capsys.readouterr()
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg, "rest.yaml"),
                     "--out", str(rest), "--quiet"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.endswith(": initial.snapshot") and "hbar 1)" in err and "hbar 0.25)" in err
        assert not rest.exists()

    @pytest.mark.parametrize("preset, hamiltonian, initial", [
        # zeta = sin q changes sign on the grid: the two branches of sigma_z cross
        ("zeta_sigma_z", {"zeta": {"name": "sin_q"}, "coeffs": [[[0, 0], [0, 0]], "sigma_z"]},
         {"state": {"profile": "eigen", "branch": 0}}),
        # B = 0 closes the nanowire's gap at p = 0
        ("beyond_nanowire_mixed", {"B": 0.0},
         {"waveop": {"profile": "eigen_mix", "weights": [0.7, 0.3]}}),
    ])
    def test_eigen_profile_on_a_crossing_exits_1_at_hamiltonian(self, tmp_path, capsys, preset,
                                                               hamiltonian, initial):
        """The branch eigenfields of a Hamiltonian with an eigenvalue crossing
        build no initial state, as they build no equilibrium."""
        cfg = getattr(presets, preset)(N=16)
        cfg["hamiltonian"].update(hamiltonian)
        cfg["initial"].update(initial)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     "--quiet"]) == 1
        err = capsys.readouterr().err.strip()
        assert "eigenvalue crossing" in err and err.endswith(": hamiltonian")
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        cfg = presets.nanowire_conditional(N=16, t_final=0.3, sample_every=4)
        path = write_cfg(tmp_path, cfg)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
            outs.append(open(os.path.join(out, "diagnostics.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_lambda_flag_only_when_measured(self, tmp_path):
        # meta.json reports no Lambda sign for a run whose rows never measured it
        seen = {}
        for functionals in (None, ["mass"]):
            cfg = presets.nanowire_conditional(N=16, t_final=0.3, sample_every=4, loop=False)
            if functionals is not None:
                cfg["diagnostics"]["functionals"] = functionals
            tag = "default" if functionals is None else "mass"
            path = write_cfg(tmp_path, cfg, name=f"{tag}.yaml")
            out = str(tmp_path / tag)
            assert main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
            meta = json.load(open(os.path.join(out, "meta.json")))
            seen[tag] = meta["flags"]["lambda_nonpositive_seen"]
        assert seen == {"default": False, "mass": None}

    def test_model_override(self, tmp_path):
        cfg = presets.classical_well(N=16, t_final=0.2, model="beyond_ehrenfest")
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", path, "--out", out, "--quiet",
                     "--model", "ehrenfest_density"]) == 0
        meta = json.load(open(os.path.join(out, "meta.json")))
        assert meta["model"] == "ehrenfest_density"

    def test_cfl_abort_exits_2(self, tmp_path, capsys):
        cfg = presets.nanowire_conditional(N=16, loop=False)
        cfg["time"] = {"dt": 2.0, "steps": 4, "sample_every": 1}
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", path, "--out", out, "--quiet"]) == 2
        assert "CFL" in capsys.readouterr().err
        assert os.path.exists(os.path.join(out, "abort.snap"))

    def test_golden_run_against_refined_oracle(self, tmp_path):
        # the reference values are generated by the same scenario at double
        # resolution; conserved columns must match within tolerance
        vals = {}
        for N in (24, 48):
            cfg = presets.nanowire_conditional(N=N, t_final=1.0, sample_every=8, loop=False)
            path = write_cfg(tmp_path, cfg, name=f"nw{N}.yaml")
            out = str(tmp_path / f"out{N}")
            assert main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
            vals[N] = read_csv(os.path.join(out, "diagnostics.csv"))
        # cross-resolution agreement is limited by the truncated-Gaussian
        # seam mass of the initial data (~5e-5 for sigma_q = 0.7)
        for name, tol in (("mass", 1e-10), ("energy", 2e-4), ("S_pure", 1e-3),
                          ("purity", 1e-5)):
            a, b = vals[24][name], vals[48][name]
            assert abs(a[-1] - b[-1]) < tol, name


class TestEquilibriumCommand:
    def test_writes_snapshot_and_metrics(self, tmp_path):
        cfg = presets.dephasing_equilibrium(N=32)
        cfg["equilibrium"]["T_check"] = 1.0
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--config", path, "--out", out, "--quiet"]) == 0
        rec = json.load(open(os.path.join(out, "equilibrium.json")))
        assert rec["mu"] == pytest.approx(2.0)
        assert rec["metrics"]["marina"] < 1e-8
        assert rec["metrics"]["d_change_l1"] < 1e-3
        snap = read_snapshot(os.path.join(out, "equilibrium.snap"))
        assert isinstance(snap, ConditionalSplit)

    # Z_C finite; Z_C beyond the float range (ln Z_C still finite); no closed form;
    # a NaN config value, which meta.json echoes
    @pytest.mark.parametrize("case", ["mu=2", "mu=1e4", "mean_field", "meta"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_json_holds_only_numbers_and_null(self, tmp_path, case):
        def reject(constant):
            raise ValueError(f"{constant} is not a JSON number")

        if case == "meta":
            cfg = presets.nanowire_conditional(N=16, t_final=0.1, loop=False)
            cfg["physics"]["note"] = float("nan")
            out = tmp_path / "out"
            assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                         "--quiet"]) == 0
            meta = json.loads((out / "meta.json").read_text(), parse_constant=reject)
            assert meta["config"]["physics"]["note"] is None
            return
        if case == "mean_field":
            cfg = presets.uncoupled_factorized(N=16)
            cfg["equilibrium"] = {"representation": "mean_field", "mu": 1.0}
        else:
            cfg = presets.dephasing_equilibrium(N=16, mu=float(case[3:]))
        cfg["equilibrium"]["T_check"] = 0.5
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--config", path, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "equilibrium.json")) as fh:
            rec = json.loads(fh.read(), parse_constant=reject)
        for value in (rec["mu"], rec["energy"], *rec["metrics"].values()):
            assert isinstance(value, (int, float)) and not isinstance(value, bool)
        if case == "mu=2":
            assert rec["ln_Z_C"] == pytest.approx(np.log(rec["Z_C"]), rel=1e-12)
        elif case == "mu=1e4":
            assert rec["Z_C"] is None and isinstance(rec["ln_Z_C"], float)
        else:
            assert rec["Z_C"] is None and rec["ln_Z_C"] is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_mu_writes_a_finite_state(self, tmp_path):
        """mu = -1000 weights the top of the soft well. The weight was once
        referred to the minimum energy: it overflowed, and the run exited 0
        with NaN in equilibrium.snap."""
        cfg = presets.dephasing_equilibrium(N=16, mu=-1000.0)
        cfg["equilibrium"]["certify"] = False
        out = tmp_path / "out"
        assert main(["equilibrium", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     "--quiet"]) == 0
        snap = read_snapshot(out / "equilibrium.snap")
        assert np.all(np.isfinite(snap.D)) and np.all(np.isfinite(snap.W))
        assert snap.mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("representation", ["conditional", "uhlmann", "mean_field"])
    def test_kinked_landscape_reports_no_certificate(self, tmp_path, representation):
        """On the polynomial harmonic well, whose landscape is kinked at the
        domain seam, the Gibbs state is written without a stationarity run:
        the certificate is null with its reason, and no stationarity metric
        is reported (the run used to end in a CFL abort, exit 2; the
        mean-field build used to drop the flag and report d_change_l1)."""
        cfg = presets.harmonic_gibbs(N=16)
        if representation != "conditional":  # these Gibbs states need an uncoupled H
            cfg["hamiltonian"] = {"kind": "uncoupled", "h_c": {"name": "harmonic", "omega": 1.0},
                                  "H_Q": "sigma_x"}
            cfg["equilibrium"] = {"representation": representation, "mu": 2.0}
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--config", write_cfg(tmp_path, cfg), "--out", out,
                     "--quiet"]) == 0
        rec = json.load(open(os.path.join(out, "equilibrium.json")))
        assert rec["certificate"] is None and "seam" in rec["certificate_reason"]
        # the mean-field build has no residual of its own
        assert set(rec["metrics"]) == (set() if representation == "mean_field"
                                       else {"lambda_max_dev"})
        assert os.path.isfile(os.path.join(out, "equilibrium.snap"))


class TestCasimirCheckCommand:
    def test_report(self, tmp_path):
        cfg = presets.nanowire_conditional(N=32, loop=False)
        cfg["diagnostics"]["n_probes"] = 3
        cfg["diagnostics"]["probes_seed"] = 7
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["casimir-check", "--config", path, "--out", out, "--quiet"]) == 0
        rep = json.load(open(os.path.join(out, "casimir_report.json")))
        assert rep["n_probes"] == 3
        assert rep["antisymmetry_max"] < 1e-9
        assert rep["max_ratio"] < 1e-3  # coarse grid; acceptance runs finer


class TestStartup:
    def test_no_command_loads_scipy(self, tmp_path):
        """A fresh process imports scipy neither with the CLI, nor for a
        loop-free command, nor for a loop-traced run, and that run writes
        the diagnostics a run in this process writes."""
        probe = presets.nanowire_conditional(N=16, loop=False)
        probe["diagnostics"]["n_probes"] = 2
        traced = presets.nanowire_conditional(N=16, t_final=0.3, sample_every=4)
        args = [write_cfg(tmp_path, probe, "probe.yaml"), str(tmp_path / "probe"),
                write_cfg(tmp_path, traced, "traced.yaml"), str(tmp_path / "child")]
        script = (
            "import sys\n"
            "import mqclab.cli\n"
            "probe, probe_out, traced, traced_out = sys.argv[1:]\n"
            "print('scipy' in sys.modules)\n"
            "code = mqclab.cli.main(['casimir-check', '--config', probe, '--out', probe_out,"
            " '--quiet'])\n"
            "print(code, 'scipy' in sys.modules)\n"
            "code = mqclab.cli.main(['simulate', '--config', traced, '--out', traced_out,"
            " '--quiet'])\n"
            "print(code, 'scipy' in sys.modules)\n")
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", script] + args, capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": path})
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["False", "0", "False", "0", "False"]
        here = tmp_path / "here"
        assert main(["simulate", "--config", args[2], "--out", str(here), "--quiet"]) == 0
        csv = (tmp_path / "child" / "diagnostics.csv").read_bytes()
        assert b"poincare" in csv.splitlines()[0]
        assert csv == (here / "diagnostics.csv").read_bytes()


class TestConvergenceCommand:
    def test_spatial_order_of_harmonic_advection(self, tmp_path):
        # Gaussian advected in a (periodic-surrogate) well: the entropy drift
        # measures the advection discretization error
        cfg = presets.dephasing_equilibrium(N=16)
        cfg["time"] = {"cfl": 0.2, "t_final": 1.0, "sample_every": 4}
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", path, "--out", out, "--quiet",
                     "--levels", "3"]) == 0
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        assert lines[0].startswith("level,h,")
        fits = {}
        for line in lines:
            parts = line.split(",")
            if len(parts) == 3 and parts[0] not in ("level", "diagnostic"):
                try:
                    fits[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        assert fits["S_pure"] > 3.5

    def test_temporal_order_on_frozen_grid(self, tmp_path):
        cfg = presets.nanowire_conditional(N=32, loop=False)
        cfg["time"] = {"dt": 0.02, "steps": 50, "sample_every": 50}
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", path, "--out", out, "--quiet",
                     "--levels", "3", "--mode", "temporal"]) == 0
        text = open(os.path.join(out, "convergence.csv")).read()
        fits = {}
        for line in text.splitlines():
            parts = line.split(",")
            if len(parts) == 3 and parts[0] not in ("level", "diagnostic"):
                try:
                    fits[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        assert fits["energy"] > 3.8

    def test_temporal_order_on_cfl_timed_config(self, tmp_path):
        # the level-0 CFL step is halved at each level over the same final time
        cfg = presets.nanowire_conditional(N=16, loop=False)
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", path, "--out", out, "--quiet",
                     "--levels", "3", "--mode", "temporal"]) == 0
        text = open(os.path.join(out, "convergence.csv")).read()
        table, fits = text.split("\n\n")
        hs = [float(line.split(",")[1]) for line in table.splitlines()[1:]]
        assert hs == [hs[0], hs[0] / 2, hs[0] / 4]
        steps = round(cfg["time"]["t_final"] / hs[0])
        assert hs[0] * steps == pytest.approx(cfg["time"]["t_final"])
        orders = {line.split(",")[0]: float(line.split(",")[1])
                  for line in fits.splitlines()[1:]}
        assert orders["energy"] > 3.8

    def test_no_order_fitted_to_round_off(self, tmp_path, capsys):
        """Mass and C1 of the conditional model are conserved to round-off
        (drifts of a few 1e-16 and 1e-17): no order is fitted to them, the
        stderr note names each, and the drift table keeps their values; the
        energy order is still fitted."""
        cfg = presets.nanowire_conditional(N=16)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", write_cfg(tmp_path, cfg), "--out", out,
                     "--quiet", "--levels", "3"]) == 0
        table, fits = open(os.path.join(out, "convergence.csv")).read().split("\n\n")
        orders = {line.split(",")[0]: float(line.split(",")[1])
                  for line in fits.splitlines()[1:]}
        assert "mass" not in orders and "C1" not in orders
        assert orders["energy"] > 4.5
        err = capsys.readouterr().err
        assert "no order fitted for mass" in err and "no order fitted for C1" in err
        header, *rows = [line.split(",") for line in table.splitlines()]
        for col in ("mass", "C1"):
            drifts = [float(row[header.index(col)]) for row in rows]
            assert len(drifts) == 3 and 0 < max(drifts) < 1e-15

    def test_mass_flat_at_machine_level(self, tmp_path):
        cfg = presets.nanowire_conditional(N=16, t_final=0.5, sample_every=4, loop=False)
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", path, "--out", out, "--quiet",
                     "--levels", "2"]) == 0
        lines = [l.split(",") for l in open(os.path.join(out, "convergence.csv")).read().splitlines()]
        header = lines[0]
        mcol = header.index("mass")
        for row in lines[1:3]:
            assert float(row[mcol]) < 1e-12

    def test_every_preset_study_is_within_its_allowance(self):
        """The default three-level study of every preset with a run, at its
        64^2 default, is built and checked in full: level k may ask for 8^k
        times the work cap. Its 256^2 level asks for more than the cap on
        nanowire_conditional, nanowire_meanfield and uncoupled_factorized,
        where a run without the allowance exits 1 at time.t_final."""
        args = build_parser().parse_args(["convergence", "--config", "-", "--levels", "3"])
        above = []
        for name in ("nanowire_conditional", "nanowire_meanfield", "nanowire_twisted",
                     "dephasing_equilibrium", "classical_well", "uncoupled_factorized",
                     "beyond_nanowire_mixed", "zeta_sigma_z"):
            cfg = getattr(presets, name)()
            levels = _study_levels(args, config, cfg, build_grid(cfg), config.time_spec(cfg))
            assert [grid.Nq for grid, *_ in levels] == [64, 128, 256]
            grid, ham, model, state, stepper, _ = levels[2]
            if stepper.steps * grid.Nq * grid.Np * ham.n**2 > WORK_CAP:
                above.append(name)
                scaled = config.rescaled(cfg, build_grid(cfg), 4, config.time_spec(cfg))
                with pytest.raises(ConfigError, match="above the cap") as exc:
                    config.build_stepper(scaled, grid, ham, model, state)
                assert exc.value.path == "time.t_final"
        assert above == ["nanowire_conditional", "nanowire_meanfield", "uncoupled_factorized"]

    def test_a_study_above_the_work_cap_exits_1_before_any_level_runs(self, tmp_path):
        """A final time of 1e6 exits 1 at time.t_final, giving the step count,
        with no level run: nothing on stdout and no output directory. The run
        is a child given 20 s."""
        cfg = presets.nanowire_conditional(N=16, loop=False)
        cfg["time"]["t_final"] = 1e6
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get(
            "PYTHONPATH")])), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        child = subprocess.run([sys.executable, "-m", "mqclab", "convergence", "--config",
                                write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"),
                                "--levels", "3"], capture_output=True, text=True, env=env,
                               timeout=20)
        err = child.stderr.strip()
        assert child.returncode == 1, err
        assert err.startswith("config error:") and err.endswith("above the cap of 2e+08: time.t_final")
        assert child.stdout == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("Nq", "16"), ("dt", "0.01")])
    def test_levels_scale_the_numbers_read(self, tmp_path, key, value):
        """A quoted number is read as the number: level 1 halves h on a 32 x 32
        grid (a quoted Nq used to run it at N = 1616, "16" * 2, and a quoted
        dt ended in a TypeError)."""
        cfg = presets.nanowire_conditional(N=16, loop=False)
        cfg["time"] = {"dt": 0.01, "steps": 4, "sample_every": 4}
        cfg["grid" if key == "Nq" else "time"][key] = value
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", write_cfg(tmp_path, cfg), "--out", out,
                     "--quiet", "--levels", "2"]) == 0
        table = open(os.path.join(out, "convergence.csv")).read().split("\n\n")[0]
        hs = [float(line.split(",")[1]) for line in table.splitlines()[1:]]
        assert hs == [2 * np.pi / 16, 2 * np.pi / 32]
