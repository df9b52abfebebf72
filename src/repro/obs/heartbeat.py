"""Live stderr progress/ETA heartbeat driven by the metrics registry.

The paper's accounting model predicts what a run *should* cost: every
iteration performs a bounded number of full edge scans (≤ 3 forward +
3 backward for 2P-SCC; the one-phase variants pay their scans on a
shrinking edge file), and one full scan over ``E`` live edges moves
``ceil(E · EDGE_BYTES / B)`` blocks.  The run loops publish their
position in that model as gauges (iteration, live nodes/edges, blocks
per scan) and the :class:`~repro.io.counter.IOCounter` observer feeds
the blocks-read counters — so a heartbeat can project completion
*mid-run* instead of post-mortem:

* progress = blocks read so far vs. the per-iteration scan budget;
* remaining work = a geometric series of future per-iteration budgets
  using the observed per-iteration edge-retention ratio
  ``rho = (live/initial)^(1/iteration)``;
* ETA = remaining blocks over the observed block-read rate.

Everything here *reads* the registry; nothing feeds back into the run,
so the heartbeat inherits the sampler's accounting transparency.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import IO, Dict, Optional

from repro.constants import EDGE_BYTES
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SCAN_BUDGETS",
    "Heartbeat",
    "Progress",
    "estimate_remaining_blocks",
    "format_heartbeat",
    "predicted_blocks_per_scan",
    "read_progress",
]

#: Predicted full edge scans per iteration, per algorithm — the paper's
#: per-iteration I/O budget.  2P-SCC: ≤ 3 forward + 3 backward scans
#: (Tree-Construction + Tree-Search over both orientations).  1P/1PB and
#: EM-SCC: one forward + one backward pass over the live edge file per
#: iteration.  DFS-SCC: Tarjan over fwd edges plus the transpose build
#: amortises to ~3 passes.  Unknown algorithms get no budget (no ETA).
SCAN_BUDGETS: Dict[str, int] = {
    "2P-SCC": 6,
    "1P-SCC": 2,
    "1PB-SCC": 2,
    "EM-SCC": 2,
    "DFS-SCC": 3,
}


def predicted_blocks_per_scan(num_edges: int, block_size: int) -> int:
    """Blocks one full pass over ``num_edges`` edges moves (ceil)."""
    if num_edges <= 0 or block_size <= 0:
        return 0
    return -(-num_edges * EDGE_BYTES // block_size)


@dataclass
class Progress:
    """One decoded position in the paper's cost model."""

    algorithm: str
    iteration: int
    live_nodes: int
    live_edges: int
    initial_edges: int
    blocks_read: int
    blocks_per_scan: int
    scan_budget: int

    @property
    def retention(self) -> Optional[float]:
        """Observed per-iteration edge-retention ratio ``rho``.

        ``None`` until one iteration has completed or when the graph is
        not shrinking (``rho >= 1`` would make the projection diverge).
        """
        if self.iteration < 1 or self.initial_edges <= 0:
            return None
        ratio = self.live_edges / self.initial_edges
        if ratio <= 0.0:
            return 0.0
        rho = ratio ** (1.0 / self.iteration)
        return rho if rho < 1.0 else None


def _series_name(series: str) -> str:
    return series.split("{", 1)[0]


def read_progress(snapshot: Dict[str, object],
                  algorithm: str = "") -> Optional[Progress]:
    """Decode a :meth:`MetricsRegistry.snapshot` into a :class:`Progress`.

    Returns ``None`` before the run loop has published its first
    position (no ``repro_run_iteration`` gauge yet).  ``algorithm``
    overrides the ``repro_run_info`` label when the caller already knows
    it (the CLI does).
    """
    gauges = snapshot.get("gauges")
    counters = snapshot.get("counters")
    if not isinstance(gauges, dict) or "repro_run_iteration" not in gauges:
        return None
    if not isinstance(counters, dict):
        counters = {}
    if not algorithm:
        for series in gauges:
            if _series_name(series) == "repro_run_info" and "algorithm=" in series:
                algorithm = series.split('algorithm="', 1)[1].split('"', 1)[0]
                break
    blocks_read = sum(
        int(value)  # type: ignore[arg-type]
        for series, value in counters.items()
        if _series_name(series) == "repro_io_read_blocks_total"
    )
    return Progress(
        algorithm=algorithm,
        iteration=int(gauges.get("repro_run_iteration", 0)),  # type: ignore[arg-type]
        live_nodes=int(gauges.get("repro_run_live_nodes", 0)),  # type: ignore[arg-type]
        live_edges=int(gauges.get("repro_run_live_edges", 0)),  # type: ignore[arg-type]
        initial_edges=int(gauges.get("repro_run_initial_edges", 0)),  # type: ignore[arg-type]
        blocks_read=blocks_read,
        blocks_per_scan=int(gauges.get("repro_run_blocks_per_scan", 0)),  # type: ignore[arg-type]
        scan_budget=int(gauges.get("repro_run_scan_budget", 0)),  # type: ignore[arg-type]
    )


def estimate_remaining_blocks(progress: Progress) -> Optional[int]:
    """Project the counted block reads still ahead of the run.

    The current iteration is budgeted at
    ``scan_budget · blocks_per_scan``; each later iteration shrinks by
    the observed retention ratio ``rho``, so the remaining work is the
    geometric series ``budget · bps · (1 + rho + rho² + …) =
    budget · bps / (1 - rho)``.  ``None`` when the model has no anchor
    yet (unknown budget, empty scan, or no completed iteration to
    estimate ``rho`` from).
    """
    if progress.scan_budget <= 0 or progress.blocks_per_scan <= 0:
        return None
    rho = progress.retention
    if rho is None:
        return None
    per_iteration = progress.scan_budget * progress.blocks_per_scan
    return int(per_iteration / (1.0 - rho))


def _fmt_duration(seconds: float) -> str:
    if seconds < 0:
        return "-"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def format_heartbeat(progress: Progress, elapsed_s: float) -> str:
    """Render one heartbeat line from a decoded progress position."""
    parts = [
        f"[{_fmt_duration(elapsed_s)}]",
        progress.algorithm or "run",
        f"iter {progress.iteration}",
        f"live {progress.live_nodes:,}n/{progress.live_edges:,}e",
        f"read {progress.blocks_read:,} blocks",
    ]
    if elapsed_s > 0 and progress.blocks_read > 0:
        rate = progress.blocks_read / elapsed_s
        parts.append(f"({rate:,.0f} blk/s)")
        remaining = estimate_remaining_blocks(progress)
        if remaining is not None:
            parts.append(f"eta ~{_fmt_duration(remaining / rate)}")
    elif progress.scan_budget > 0 and progress.blocks_per_scan > 0:
        parts.append(
            f"budget {progress.scan_budget * progress.blocks_per_scan:,} "
            "blocks/iter"
        )
    return " ".join(parts)


class Heartbeat:
    """Daemon thread printing one progress line per interval to stderr.

    Reads the registry, computes nothing the run depends on, and writes
    only to ``stream`` — fully decoupled from the algorithm it watches.
    Silent until the run loop publishes its first iteration gauge.
    """

    def __init__(self, registry: MetricsRegistry,
                 interval_s: float = 5.0,
                 stream: Optional[IO[str]] = None,
                 algorithm: str = "") -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.registry = registry
        self.interval_s = interval_s
        self.algorithm = algorithm
        self._stream = stream if stream is not None else sys.stderr
        self._stop = threading.Event()
        self._origin = time.perf_counter()
        # Not a reader thread: it formats registry gauges to stderr —
        # it never opens graph files, so nothing escapes the counter.
        self._thread = threading.Thread(  # repro: allow[SCAN001]
            target=self._loop, name="repro-heartbeat", daemon=True
        )
        self._thread.start()

    def beat_once(self) -> Optional[str]:
        """Emit one heartbeat line now; returns it (``None`` if silent)."""
        progress = read_progress(self.registry.snapshot(), self.algorithm)
        if progress is None:
            return None
        line = format_heartbeat(
            progress, time.perf_counter() - self._origin
        )
        print(line, file=self._stream, flush=True)
        return line

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.beat_once()
            except Exception:
                # A broken pipe on stderr must never take down the run.
                continue

    def close(self) -> None:
        """Stop the thread and emit one final line (if progress exists)."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        try:
            self.beat_once()
        except Exception:
            pass

    def __enter__(self) -> "Heartbeat":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
