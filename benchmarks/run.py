"""mqclab benchmark: one workload per call, or all four.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout. Each ``mqclab`` command runs as a fresh
single-threaded child process, one at a time (closed loop, one client).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced child and the layer sweep. README.md documents the workloads and
metrics. Work files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# MQC_THREADS=1 and the pools it caps, for this process and every child
THREAD_VARS = ("MQC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_ONLY_RUNS = 3   # extra children that stop at the end of set-up
RUN_LIMIT_S = 170     # every child is killed after this much of the run

# CPU time of one probe loop (child.py) on an uncontended core of the
# machine the bounds were set on
PROBE_REF_S = 0.0013

E2E_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "invariant_err": "rel"}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_normalised(probes, end):
    """A child's CPU time up to ``end``, at the fixed probe speed PROBE_REF_S.

    ``probes`` are (start, duration) pairs in the child's CPU time. The probe
    time is left out, and the rest is scaled by PROBE_REF_S over the median
    probe duration, so a spell in which the host runs this core slowly
    counts at the reference speed.
    """
    durations = [d for start, d in probes or () if start < end]
    if not durations:
        return end
    return (end - sum(durations)) * PROBE_REF_S / statistics.median(durations)


def host_steal_s():
    """CPU time the hypervisor took from this machine since boot (all CPUs)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Bench:
    """One benchmark run: a workload, its seed and its work directory."""

    def __init__(self, workload, seed):
        from workloads import WORKLOADS, generate

        self.w = WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / f"{workload}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = generate(workload, seed, str(self.dir))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.deadline = now() + RUN_LIMIT_S
        self.reference = None   # output hashes of the first finished process
        self.problems = []
        self.log = []
        self.steal_s = None   # stolen CPU time while the full runs were measured

    def spawn(self, argv, tag):
        """Run one child to its end; return exit code, wall s, CPU s, peak RSS MB."""
        out = self.dir / f"{tag}.out"
        with open(out, "w") as fo, open(self.dir / f"{tag}.err", "w") as fe:
            t0 = now()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.dir, env=self.env,
                                    stdout=fo, stderr=fe)
        timer = threading.Timer(max(self.deadline - now(), 1.0), proc.kill)
        timer.start()
        try:
            # the child's own rusage: RUSAGE_CHILDREN would keep the maximum
            # over every child this process ever waited for
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = now() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"tag": tag, "t0": t0, "code": proc.returncode, "wall_s": wall,
                "cpu_raw_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "stdout": out.read_text()}

    def run_child(self, mode, tag):
        record = self.dir / f"{tag}.json"
        argv = [str(HERE / "child.py"), mode, str(record), "--", self.w.command,
                "--config", self.config, "--out", tag]
        proc = self.spawn(argv, tag)
        rec = json.loads(record.read_text()) if record.is_file() else {}
        probes = rec.get("probes")
        proc["cpu_s"] = speed_normalised(probes, proc["cpu_raw_s"])
        proc["probe_s"] = sum(d for _, d in probes or ())
        proc["probe_median_s"] = statistics.median(d for _, d in probes) if probes else None
        if "setup_end" in rec:
            proc["setup_wall_s"] = rec["setup_end"] - proc["t0"]
            proc["setup_raw_s"] = rec["setup_cpu"]
            proc["setup_s"] = speed_normalised(probes, rec["setup_cpu"])
        proc["spans"] = rec.get("spans")
        return proc

    def check(self, proc):
        """Check one full run's outputs and record its problems."""
        from workloads import COMPARED, check_outputs, snapshot_roundtrip

        tag, outdir = proc["tag"], self.dir / proc["tag"]
        if proc["code"] != 0:
            problems = [f"exit code {proc['code']}"]
        elif "setup_s" not in proc:
            problems = ["set-up end was never reached"]
        else:
            proc["invariant_err"], problems = check_outputs(self.w.name, str(outdir),
                                                            proc["stdout"])
            hashes = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                      for name in COMPARED[self.w.command]}
            if self.reference is None:
                self.reference = hashes
                problems += snapshot_roundtrip(str(outdir), self.w.command, str(self.dir))
                problems += self._compare_with_earlier_runs(hashes)
            problems += [f"{name} differs from the first run of seed {self.seed}"
                         for name in hashes if hashes[name] != self.reference[name]]
        proc["problems"] = problems
        self.problems += [f"{tag}: {p}" for p in problems]

    def _compare_with_earlier_runs(self, hashes):
        """Outputs of this seed must match earlier runs of the same code."""
        code = hashlib.sha256()
        for path in sorted(list((SRC / "mqclab").rglob("*.py")) + list(HERE.glob("*.py"))):
            code.update(path.read_bytes())
        ref = WORK / "refs" / f"{code.hexdigest()[:16]}-{self.w.name}-s{self.seed}.json"
        if not ref.is_file():
            ref.parent.mkdir(exist_ok=True)
            ref.write_text(json.dumps(hashes))
            return []
        earlier = json.loads(ref.read_text())
        return [f"{name} differs from an earlier run of seed {self.seed}"
                for name in hashes if hashes[name] != earlier.get(name)]

    def measure(self, seconds):
        """End-to-end metrics: set-up-only children, then full runs."""
        start, steal0 = now(), host_steal_s()
        setups = []
        for k in range(SETUP_ONLY_RUNS):
            proc = self.run_child("setup", f"setup{k}")
            if proc["code"] == 0 and "setup_s" in proc:
                setups.append(proc["setup_s"])
            else:
                self.problems.append(f"setup{k}: exit code {proc['code']}, no set-up mark")
            shutil.rmtree(self.dir / f"setup{k}", ignore_errors=True)
        runs = []
        while not runs or (now() - start + statistics.median(p["wall_s"] for p in runs)
                           <= seconds):
            proc = self.run_child("plain", f"p{len(runs)}")
            self.check(proc)
            runs.append(proc)
            if len(runs) > 1:
                shutil.rmtree(self.dir / proc["tag"], ignore_errors=True)
        self.log += runs
        if steal0 is not None:
            self.steal_s = host_steal_s() - steal0
        ok = [p for p in runs if not p["problems"]]
        # failed runs still report their figures, as long as they have them
        measured = ok or [p for p in runs if "invariant_err" in p and "setup_s" in p]
        if not measured:
            raise SystemExit(f"{self.w.name}: no run produced results: {self.problems}")
        setups += [p["setup_s"] for p in measured]
        metrics = {
            "cpu_s": statistics.median(p["cpu_s"] for p in measured),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured),
            "invariant_err": statistics.median(p["invariant_err"] for p in measured),
        }
        return len(runs), len(runs) - len(ok), {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}

    def trace(self):
        """Per-layer metrics: one plain run, one traced run, the layer sweep."""
        from spans import MB, SPANS, prediction_failures

        plain = self.run_child("plain", "p0")
        self.check(plain)
        traced = self.run_child("trace", "traced")
        self.check(traced)
        sweep_out = self.dir / "sweep.json"
        sweep = self.spawn([str(HERE / "sweep.py"), str(sweep_out)], "sweep")
        self.log += [plain, traced, sweep]
        if sweep["code"] != 0:
            self.problems.append(f"sweep: exit code {sweep['code']}")
        spans = traced.get("spans")
        if traced["code"] != 0 or not spans or sweep["code"] != 0:
            raise SystemExit(f"{self.w.name}: traced run incomplete: {self.problems}")
        calls = {name: s["calls"] for name, s in spans.items()}
        self.problems += prediction_failures(self.w.name, calls)
        metrics = {}
        for name in SPANS:
            s = spans[name]
            metrics[f"{name}.calls"] = (s["calls"], "count")
            metrics[f"{name}.ms"] = (s["ms"], "ms")
            metrics[f"{name}.self_ms"] = (s["self_ms"], "ms")
            if name in MB:
                metrics[f"{name}.mb"] = (s["mb"], "MB")
        # the traced child runs no speed probe: compare raw CPU time without it
        overhead = traced["cpu_raw_s"] - (plain["cpu_raw_s"] - plain["probe_s"])
        metrics["trace.overhead_s"] = (overhead, "s")
        for name, ms in json.loads(sweep_out.read_text()).items():
            metrics[name] = (ms, "ms")
        failed = sum(bool(p["problems"]) for p in (plain, traced))
        return 2, failed, metrics


def environment():
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(index / "type") in ("Unified", "Data"):
            caches[f"L{read(index / 'level')}"] = read(index / "size")
    cpu = next((line.split(":", 1)[1].strip() for line in
                (read("/proc/cpuinfo") or "").splitlines() if line.startswith("model name")),
               platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "largest_field": "128x128x2x2 complex128 = 1.0 MiB, cache-resident: "
                         "stencil .mb is computed bytes, not measured bandwidth",
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    bench = Bench(workload, seed)
    attempted, failed, metrics = bench.trace() if trace else bench.measure(seconds)
    declared = {k: u for k, (v, u) in metrics.items()}
    if declared != declared_metrics(trace):
        raise SystemExit(f"{workload}: metrics do not match BENCHMARK.json")
    with open(bench.dir / "results.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "environment": environment(), "problems": bench.problems,
                   "host_steal_s": bench.steal_s,
                   "processes": [{k: v for k, v in p.items() if k not in ("stdout", "spans")}
                                 for p in bench.log],
                   "metrics": metrics}, fh, indent=1)
    for p in bench.problems:
        print(f"{workload}: {p}")
    # wall time is shown, not bounded: on a shared host it also measures the
    # host's other tenants
    wall = [p["wall_s"] for p in bench.log if p["tag"][0] == "p" and p["tag"][1:].isdigit()]
    steal = "" if bench.steal_s is None else f", host steal {bench.steal_s:.2f} s"
    print(f"{workload}: median wall {statistics.median(wall):.6g} s "
          f"over {len(wall)} full runs{steal}")
    return {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mqclab" / "cli.py").is_file():
        raise SystemExit(f"no mqclab sources under {SRC}: run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "mqclab"), quiet=1)
    print(json.dumps({"environment": environment()}))

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
        return
    results = {}
    for name in WORKLOADS:
        res = results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: ops {res['attempted']}, failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
