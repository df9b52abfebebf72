"""Host-speed gauge: fixed benchmark-owned work timed beside a region.

The test host's CPUs change speed on their own, by up to a factor of
two, in spells from under a second to many minutes, and each CPU on
its own schedule (METHODS.md, "Steadiness").  Every timed region of an
untraced run is therefore reported at the speed where the gauge takes
:data:`NOMINAL_S`.  The gauge calls nothing from ``repro``, so a change
to the program moves the reported time by its full amount.

A :class:`Spinner` runs gauge passes without pause in a child process
pinned to the CPU the timed work runs on, at the lowest nice level.
The work preempts it, yet it still gets about 1.5 % of the CPU and so
keeps reading the speed *during* each region; each pass is timed in CPU
time, which preemption does not inflate.  :func:`gauge_during` reads
the passes of one region and :func:`at_nominal_speed` restates a run's
regions.

The work mixes what the program's hot loops do: numpy scalar reads
turned into Python ints, dict updates and list push/pop.  It allocates
no container objects per step and runs with the cyclic collector off.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Gauge times are stated per this many steps of gauge work.
STEPS = 160_000

#: The gauge time at the speed regions are stated at: the test host's
#: (2 vCPUs of an Intel Xeon at 2.1 GHz) in its fast spells, so stated
#: times read close to what that host shows when quiet.
NOMINAL_S = 0.05

#: Steps of one spinner pass: a few ms of CPU, so a region of a second
#: or more holds several passes.
PASS_STEPS = 10_000

#: Passes that gauge one region: those inside it, or at least this many
#: nearest to it when it is too short to hold them.
MIN_PASSES = 4

_VALUES = np.arange(4096, dtype=np.int64) * 7 % 4093


def gauge_once(steps: int = STEPS, clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds, on ``clock``, that ``steps`` steps of gauge work take now."""
    values = _VALUES
    table = {}
    stack: List[int] = [0] * 64
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        for i in range(steps):
            v = int(values[i & 4095])
            table[v & 1023] = table.get(v & 1023, 0) + v
            stack.append(v)
            stack.pop()
        return clock() - started
    finally:
        if was_enabled:
            gc.enable()


def gauge_during(passes: Sequence[Sequence[float]], start: float,
                 end: float) -> Optional[float]:
    """Mean gauge time of the passes whose midpoint lies in ``[start, end]``.

    ``passes`` holds ``(began, ended, gauge_s)`` with wall times on
    :func:`time.perf_counter`.  With fewer than :data:`MIN_PASSES`
    inside, the :data:`MIN_PASSES` passes nearest the region are used;
    ``None`` when there are not that many passes at all.
    """
    if len(passes) < MIN_PASSES:
        return None
    middle = np.array([(p[0] + p[1]) / 2.0 for p in passes])
    gauges = np.array([p[2] for p in passes])
    inside = (middle >= start) & (middle <= end)
    if inside.sum() >= MIN_PASSES:
        return float(gauges[inside].mean())
    distance = np.maximum(start - middle, middle - end)
    return float(gauges[np.argsort(distance)[:MIN_PASSES]].mean())


def at_nominal_speed(timings: Sequence[Tuple[float, float]]) -> float:
    """Mean of repeated regions, restated at the speed where the gauge
    takes :data:`NOMINAL_S`.

    ``timings`` holds ``(seconds, gauge_s)`` of each region.  The total
    time is divided by the total gauge time, so a region counts as much
    as it lasted.
    """
    seconds = sum(t for t, _ in timings)
    gauges = sum(g for _, g in timings)
    return NOMINAL_S * seconds / gauges


def restate(spans: Sequence[Tuple[float, float]], passes) -> float:
    """Mean duration of the ``(start, end)`` ``spans``, restated at the
    gauge's nominal speed from ``passes``.

    Raises :class:`RuntimeError` when the passes cannot gauge a span.
    """
    timings = []
    for start, end in spans:
        gauge_s = gauge_during(passes, start, end)
        if gauge_s is None:
            raise RuntimeError("too few gauge passes to gauge a timed region")
        timings.append((end - start, gauge_s))
    return at_nominal_speed(timings)


class Spinner:
    """Gauge passes without pause, at nice 19, in a child pinned to ``cpu``.

    Returns once the child is set up and spinning; :meth:`close` stops
    it and loads its passes.
    """

    def __init__(self, cpu: int, out: str, env: Optional[dict] = None,
                 cwd: Optional[str] = None) -> None:
        self.out = out
        self.passes: List[Tuple[float, float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.gauge", "--cpu", str(cpu), "--out", out],
            env=env, cwd=cwd, stdout=subprocess.PIPE)
        self.proc.stdout.readline()
        self.proc.stdout.close()

    def close(self) -> None:
        """Stop the child, wait for it, and load its passes."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            with open(self.out) as handle:
                self.passes = [tuple(p) for p in json.load(handle)]
        except (OSError, ValueError):
            self.passes = []


def _spin(cpu: int, out: str) -> int:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    scale = STEPS / PASS_STEPS
    passes = []
    print("spinning", flush=True)
    while not stopping:
        began = time.perf_counter()
        cpu_s = gauge_once(PASS_STEPS, time.thread_time)
        passes.append((began, time.perf_counter(), cpu_s * scale))
    tmp = out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(passes, handle)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run gauge passes until SIGTERM.")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.exit(_spin(args.cpu, args.out))
