"""Layer spans wrapped around mqclab's public functions, from outside.

Each span counts calls, inclusive time (outermost activation only, so a
recursive call is not counted twice) and self time (duration minus the
time of the spans it encloses). A function is replaced at every binding
site: the module attribute, every ``from ... import`` copy in the other
mqclab modules, or the class attribute for methods and properties.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# span name -> list of (owner module, attribute path)
SPANS = {
    "grids.stencil": [("grids", "PhaseGrid.partial_q"), ("grids", "PhaseGrid.partial_p")],
    "grids.interpolate": [("grids", "PhaseGrid.interpolate")],
    "dynamics.rk4_run": [("dynamics", "rk4_run")],
    "dynamics.conditional_rhs": [("dynamics", "conditional_rhs")],
    "dynamics.beyond_ehrenfest_rhs": [("dynamics", "beyond_ehrenfest_rhs")],
    "dynamics.energy_of": [("dynamics", "energy_of")],
    "hamiltonians.build": [("hamiltonians", "build")],
    "hamiltonians.eigenfields": [("hamiltonians", "eigenfields")],
    "hamiltonians.Hamiltonian.X_p": [("hamiltonians", "Hamiltonian.X_p")],
    "states.lambda_of": [("states", "lambda_of")],
    "states.compose": [("states", "compose")],
    "diagnostics.sample": [("diagnostics", "make_sample_fn")],
    "invariants.casimir_c2": [("invariants", "casimir_c2")],
    "invariants.shannon_pure": [("invariants", "shannon_pure")],
    "invariants.entropy_uhlmann": [("invariants", "entropy_uhlmann")],
    "invariants.renyi_mqc": [("invariants", "renyi_mqc")],
    "invariants.loop_integral": [("invariants", "loop_integral")],
    "invariants.CasimirC1.value": [("invariants", "CasimirC1.value")],
    "invariants.hybrid_bracket": [("invariants", "hybrid_bracket")],
    "equilibria.gibbs_conditional": [("equilibria", "gibbs_conditional")],
    "equilibria.stationarity_residual": [("equilibria", "stationarity_residual")],
    "equilibria.marina_residual": [("equilibria", "marina_residual")],
    "probes.casimir_probe_report": [("probes", "casimir_probe_report")],
    "probes.random_smooth_split": [("probes", "random_smooth_split")],
    "snapshots.write_snapshot": [("snapshots", "write_snapshot")],
    "snapshots.read_snapshot": [("snapshots", "read_snapshot")],
    "config.load_config": [("config", "load_config")],
    "config.build_initial_state": [("config", "build_initial_state")],
    "config.build_stepper": [("config", "build_stepper")],
    "cli.main": [("cli", "main")],
}


def _stencil_mb(args, kwargs, result):
    """Computed input bytes of one stencil call (values is the argument)."""
    return np.asarray(args[1]).nbytes / 1e6


def _written_mb(args, kwargs, result):
    return os.path.getsize(args[0]) / 1e6


MB = {"grids.stencil": _stencil_mb, "snapshots.write_snapshot": _written_mb}

# Predicted activity: the workloads on which each span records calls. Every
# other workload must record zero calls for it.
NW, BEY, DEPH, CAS = ("nanowire_cond_loop64", "beyond_restart64", "dephasing_cert128",
                      "casimir_probe64")
ALL = frozenset({NW, BEY, DEPH, CAS})
PREDICTED = {
    "grids.stencil": ALL,
    "grids.interpolate": {NW},
    "dynamics.rk4_run": {NW, BEY, DEPH},
    "dynamics.conditional_rhs": {NW, DEPH},
    "dynamics.beyond_ehrenfest_rhs": {BEY},
    "dynamics.energy_of": {NW, BEY},
    "hamiltonians.build": ALL,
    "hamiltonians.eigenfields": set(),
    "hamiltonians.Hamiltonian.X_p": {NW, BEY, DEPH},
    "states.lambda_of": {NW, DEPH, CAS},
    "states.compose": {NW, CAS},
    "diagnostics.sample": {NW, BEY},
    "invariants.casimir_c2": {NW, DEPH},  # shannon_pure evaluates C2 with sigma = log
    "invariants.shannon_pure": {NW, DEPH},
    "invariants.entropy_uhlmann": {NW},
    "invariants.renyi_mqc": {NW},
    "invariants.loop_integral": {NW},
    "invariants.CasimirC1.value": {NW, BEY},
    "invariants.hybrid_bracket": {CAS},
    "equilibria.gibbs_conditional": {DEPH},
    "equilibria.stationarity_residual": {DEPH},
    "equilibria.marina_residual": {DEPH},
    "probes.casimir_probe_report": {CAS},
    "probes.random_smooth_split": {CAS},
    "snapshots.write_snapshot": {NW, BEY, DEPH},
    "snapshots.read_snapshot": {BEY},
    "config.load_config": ALL,
    "config.build_initial_state": {NW, BEY},
    "config.build_stepper": {NW, BEY},
    "cli.main": ALL,
}


def prediction_failures(workload, calls):
    """Spans whose recorded calls contradict PREDICTED on ``workload``."""
    bad = []
    for name, active in PREDICTED.items():
        n = calls.get(name, 0)
        if workload in active and n == 0:
            bad.append(f"{name}: predicted calls, recorded none")
        elif workload not in active and n != 0:
            bad.append(f"{name}: predicted no calls, recorded {n}")
    return bad


class Tracer:
    """Span statistics of one process; ``install`` patches mqclab in place."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0.0] for name in SPANS}  # calls, s, self s, MB
        self.stack = []  # [name, time of enclosed spans] per active span

    def wrap(self, name, fn):
        stats, stack, clock, mb = self.stats[name], self.stack, time.perf_counter, MB.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                if outermost:
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if mb is not None:
                stats[3] += mb(args, kwargs, result)
            return result

        return span

    def _wrap_sample_factory(self, factory):
        @functools.wraps(factory)
        def make_sample_fn(*args, **kwargs):
            return self.wrap("diagnostics.sample", factory(*args, **kwargs))
        return make_sample_fn

    def install(self):
        for modname, attr in (site for sites in SPANS.values() for site in sites):
            importlib.import_module("mqclab." + modname)
        modules = [m for k, m in sys.modules.items() if k == "mqclab" or k.startswith("mqclab.")]
        for name, sites in SPANS.items():
            for modname, attr in sites:
                owner = sys.modules["mqclab." + modname]
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(owner, cls_name, None)
                    original = None if cls is None else cls.__dict__.get(member)
                    if original is None:
                        continue  # gone: the span records no calls
                    if isinstance(original, property):
                        setattr(cls, member, property(self.wrap(name, original.fget)))
                    else:
                        setattr(cls, member, self.wrap(name, original))
                    continue
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                if name == "diagnostics.sample":
                    wrapped = self._wrap_sample_factory(original)
                else:
                    wrapped = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def report(self):
        return {
            name: {"calls": c, "ms": 1e3 * s, "self_ms": 1e3 * own, "mb": mb}
            for name, (c, s, own, mb) in self.stats.items()
        }
