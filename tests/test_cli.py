import json
import os

import numpy as np
import pytest
import yaml

from mqclab import PhaseGrid, read_snapshot, snapshot_lines, write_snapshot
from mqclab.cli import main
from mqclab.config import ConfigError, build_grid, build_hamiltonian, build_initial_state, load_config
from mqclab.diagnostics import read_csv
from mqclab import presets
from mqclab.probes import aligned_smooth_split, random_smooth_split
from mqclab.states import ConditionalSplit, compose


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
                                      "time.t_final", "time.dt", "time.cfl=0",
                                      "time.cfl=x", "time.sample_every", "time.steps",
                                      "time.sample_every=x", "equilibrium.T_check",
                                      "equilibrium.E=1e6", "hamiltonian", "equilibrium.mu",
                                      "diagnostics.loop", "diagnostics.loop.center",
                                      "diagnostics.loop.points", "diagnostics.functionals",
                                      "diagnostics.renyi_alpha=x",
                                      "diagnostics.renyi_alpha=1.0",
                                      "diagnostics.c2_sigma", "diagnostics.probes_seed",
                                      "diagnostics.n_probes", "initial.density.uniform_weight",
                                      "initial.state.amplitude", "initial.state.vector",
                                      "initial.state.vector=[[0,0],[0,0]]",
                                      "initial.state.branch", "hamiltonian.mass",
                                      "hamiltonian.eta", "hamiltonian.B"])
    def test_cli_invalid_value_exits_1_with_key_path(self, tmp_path, capsys, case):
        key, _, value = case.partition("=")
        cfg = presets.nanowire_conditional(N=16)
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
            "hamiltonian.eta": "x", "hamiltonian.B": [1, 2]}.get(key)
        if key in ("diagnostics.probes_seed", "diagnostics.n_probes"):
            command = "casimir-check"
        if case == "time.sample_every=x":  # the convergence study reads the stride first
            command, extra = "convergence", ["--levels", "2"]
        if key == "time.steps":  # a fixed step count needs a fixed dt
            cfg["time"] = {"dt": 0.01}
        if key == "initial.state.amplitude":
            cfg["initial"]["state"] = {"profile": "twisted"}
        elif key == "initial.state.branch":
            cfg["initial"]["state"] = {"profile": "eigen"}
        if key.startswith(("time.", "diagnostics.", "initial.state.")) or key in (
                "equilibrium.T_check", "initial.density.uniform_weight", "hamiltonian.mass",
                "hamiltonian.eta", "hamiltonian.B"):
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
        elif key == "initial.density":
            cfg["initial"]["density"] = 5
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

    def test_cfl_time_stepping(self):
        cfg = presets.nanowire_conditional(N=16)
        from mqclab.config import build_stepper, model_of

        grid = build_grid(cfg)
        ham = build_hamiltonian(grid, cfg)
        state = build_initial_state(grid, ham, cfg)
        st = build_stepper(cfg, grid, ham, model_of(cfg), state)
        assert st.dt * st.steps == pytest.approx(cfg["time"]["t_final"])


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

    # Z_C finite; Z_C beyond the float range (ln Z_C still finite); no closed form
    @pytest.mark.parametrize("case", ["mu=2", "mu=1e4", "mean_field"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_json_holds_only_numbers_and_null(self, tmp_path, case):
        if case == "mean_field":
            cfg = presets.uncoupled_factorized(N=16)
            cfg["equilibrium"] = {"representation": "mean_field", "mu": 1.0}
        else:
            cfg = presets.dephasing_equilibrium(N=16, mu=float(case[3:]))
        cfg["equilibrium"]["T_check"] = 0.5
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--config", path, "--out", out, "--quiet"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not a JSON number")

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
