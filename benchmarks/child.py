"""Run one ``mqclab`` command in this process, as the benchmark's child.

    python3 child.py MODE RECORD -- <mqclab arguments>

MODE is ``plain`` (run to the end), ``setup`` (exit at the end of set-up)
or ``trace`` (run with every layer span installed). The child writes a JSON
record to RECORD: the CLOCK_MONOTONIC time at which set-up ended (the first
RK4 run or the first hybrid bracket), the CPU time spent up to then,
and in trace mode the span statistics. ``mqclab`` is imported from ``src/``
of the checkout, which the parent puts on PYTHONPATH.

In ``plain`` and ``setup`` mode the child also runs a speed probe: every
``PROBE_EVERY_S`` of CPU time a timer signal runs a fixed loop of pure
Python and records when it started and how much CPU time it took. The
parent uses these to express the child's CPU time at a fixed probe speed
(see ``speed_normalised`` in run.py). Probe and set-up times are read from
the thread's CPU clock, because the process CPU clock only advances at
scheduler ticks while the timer is armed. The child is single-threaded.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

PROBE_EVERY_S = 0.05   # CPU seconds between probes
PROBE_LOOPS = 20000    # about 1.3 ms on an uncontended core


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_loop():
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return s


def _start_probes(record):
    probes = record["probes"] = []

    def on_timer(signum, frame):
        t0 = time.thread_time()
        _probe_loop()
        probes.append((t0, time.thread_time() - t0))

    signal.signal(signal.SIGPROF, on_timer)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)


def _stop_probes():
    signal.setitimer(signal.ITIMER_PROF, 0.0)


def _mark_setup_end(record, setup_only):
    """Wrap the calls that end set-up: the first RK4 run or the first bracket."""
    from mqclab import dynamics, invariants

    def first_call(fn):
        def wrapper(*args, **kwargs):
            if "setup_end" not in record:
                record["setup_end"] = _now()
                record["setup_cpu"] = time.thread_time()
                if setup_only:
                    _stop_probes()
                    _write(record)
                    os._exit(0)
            return fn(*args, **kwargs)
        return wrapper

    dynamics.rk4_run = first_call(dynamics.rk4_run)
    invariants.hybrid_bracket = first_call(invariants.hybrid_bracket)


def _write(record):
    with open(record["path"], "w") as fh:
        json.dump(record, fh)


def main():
    mode, path, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "setup", "trace") or sep != "--":
        raise SystemExit("usage: child.py plain|setup|trace RECORD -- <mqclab args>")
    record = {"path": path}
    if mode != "trace":
        _start_probes(record)
    import mqclab.cli

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    _mark_setup_end(record, mode == "setup")
    code = mqclab.cli.main(argv)
    _stop_probes()
    if tracer is not None:
        record["spans"] = tracer.report()
    _write(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
