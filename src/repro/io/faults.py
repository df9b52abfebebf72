"""Deterministic fault injection for chaos-testing the I/O layer.

Multi-hour semi-external runs live or die by how they handle the disk
misbehaving.  This module makes the misbehaviour *reproducible*: a
:class:`FaultPlan` names, by global counted-transfer ordinal, exactly
which block reads fail transiently, which block writes are torn at a
byte offset, and at which scan boundaries the process "crashes"
(:class:`SimulatedCrash`).  A :class:`FaultInjector` executes the plan
from inside :class:`~repro.io.blocks.BlockDevice`, so faults strike the
same choke-point the I/O model counts through — no monkeypatching, and
two runs with the same plan fault identically.

Plans are parsed from a compact spec string (CLI ``--fault-plan`` or the
``REPRO_FAULT_PLAN`` environment variable)::

    seed=7;read-error@5;read-error@9x2;tear@3:100;crash@scan:2

* ``read-error@N[xK]`` — the ``N``-th counted block read (0-based,
  device-wide) raises a transient :class:`TransientIOError` ``K`` times
  (default 1) before succeeding.
* ``tear@N:OFF`` — the ``N``-th counted block write persists only its
  first ``OFF`` bytes, then raises :class:`TornWriteError`.  Torn
  writes are *not* retried: recovery is the job of the atomic-rewrite
  protocol (:mod:`repro.io.atomic`), not the retry loop.
* ``slow@N:MS`` — the ``N``-th counted block read completes normally
  but only after an injected ``MS``-millisecond delay.  No error is
  raised and no retry happens; the delay makes deadline/timeout paths
  (the service's per-request budgets, rebuild time limits)
  deterministically testable.  Counted I/O is unchanged; the fired
  delay is tallied in ``faults_injected``.
* ``crash@scan:K`` — the ``K``-th scan-boundary checkpoint (0-based)
  raises :class:`SimulatedCrash` after the checkpoint is durable.
* ``seed=S`` — seeds the retry policy's backoff jitter.

Retries are governed by :class:`RetryPolicy` and surfaced in
:class:`~repro.io.counter.IOStats` as ``io_retries`` — the failed
attempts are never charged as block reads, so a retried run's counted
I/O equals the fault-free run's counts plus exactly the planned
retries (the invariant the bench-regression gate asserts).
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ReproError

#: Environment variable holding a fault-plan spec for the whole process.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class SimulatedCrash(ReproError):
    """The fault plan terminated the run at a scan boundary.

    Raised *after* the boundary checkpoint (when one is being written)
    is durable, so a resumed run restarts from this very boundary.
    """

    def __init__(self, boundary: int) -> None:
        self.boundary = boundary
        super().__init__(f"simulated crash at scan boundary {boundary}")


class TransientIOError(OSError):
    """An injected, retryable read failure (models EIO that clears)."""


class TornWriteError(OSError):
    """An injected write that persisted only a prefix of its payload.

    Deliberately not retryable: a torn block means the file's contents
    can no longer be trusted, which only the atomic-rewrite protocol
    (stage, fsync, rename) recovers from.
    """


@dataclass
class RetryPolicy:
    """Bounded retries with seeded, jittered exponential backoff.

    ``max_retries`` bounds attempts *per faulting operation*; backoff
    sleeps ``base_delay_s * 2**attempt`` scaled by a jitter factor drawn
    from the policy's private seeded RNG, so chaos runs back off
    identically run-to-run.  The default ``base_delay_s`` is effectively
    zero to keep test suites fast; production callers raise it.
    """

    max_retries: int = 3
    base_delay_s: float = 0.0
    max_delay_s: float = 0.1
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._rng = random.Random(self.seed)

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based), jittered in [0.5, 1.0]x."""
        raw = self.base_delay_s * (2.0**attempt)
        jitter = 0.5 + 0.5 * self._rng.random()
        return min(raw * jitter, self.max_delay_s)

    def sleep(self, attempt: int) -> None:
        """Sleep out the backoff for ``attempt`` (no-op at zero delay)."""
        delay = self.backoff_s(attempt)
        if delay > 0:
            time.sleep(delay)


@dataclass(frozen=True)
class _TearSpec:
    """A planned torn write: ordinal + surviving byte prefix length."""

    ordinal: int
    offset: int


_TOKEN_RE = re.compile(
    r"""^(?:
        seed=(?P<seed>\d+)
      | read-error@(?P<read>\d+)(?:x(?P<times>\d+))?
      | slow@(?P<slow>\d+):(?P<delay>\d+)
      | tear@(?P<tear>\d+):(?P<offset>\d+)
      | crash@scan:(?P<crash>\d+)
    )$""",
    re.VERBOSE,
)


@dataclass
class FaultPlan:
    """A declarative, deterministic schedule of injected faults.

    ``read_errors`` maps a counted-read ordinal to how many consecutive
    transient failures it suffers; ``tears`` lists planned torn writes;
    ``crash_boundaries`` names scan-boundary ordinals that crash the
    run.  Ordinals count *attempted* charged transfers device-wide, in
    program order, starting at 0 — retries of the same read do not
    advance the ordinal, so ``read-error@5x2`` means "the 6th read
    fails twice, then succeeds".
    """

    read_errors: Dict[int, int] = field(default_factory=dict)
    slow_reads: Dict[int, int] = field(default_factory=dict)
    tears: List[_TearSpec] = field(default_factory=list)
    crash_boundaries: List[int] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``;``-separated spec string (see module docstring)."""
        plan = cls()
        for token in filter(None, (part.strip() for part in spec.split(";"))):
            match = _TOKEN_RE.match(token)
            if match is None:
                raise ValueError(f"unrecognised fault-plan token: {token!r}")
            if match.group("seed") is not None:
                plan.seed = int(match.group("seed"))
            elif match.group("read") is not None:
                ordinal = int(match.group("read"))
                times = int(match.group("times") or 1)
                plan.read_errors[ordinal] = plan.read_errors.get(ordinal, 0) + times
            elif match.group("slow") is not None:
                ordinal = int(match.group("slow"))
                delay_ms = int(match.group("delay"))
                plan.slow_reads[ordinal] = (
                    plan.slow_reads.get(ordinal, 0) + delay_ms
                )
            elif match.group("tear") is not None:
                plan.tears.append(
                    _TearSpec(int(match.group("tear")), int(match.group("offset")))
                )
            else:
                plan.crash_boundaries.append(int(match.group("crash")))
        plan.crash_boundaries.sort()
        return plan

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_FAULT_PLAN``; ``None`` when unset."""
        import os

        env = environ if environ is not None else os.environ  # type: ignore[assignment]
        spec = env.get(FAULT_PLAN_ENV, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    def planned_retries(self, policy: Optional["RetryPolicy"] = None) -> int:
        """Total retries the plan will cause under ``policy``.

        Each planned transient failure costs one retry, capped by the
        policy's ``max_retries`` — a read planned to fail more times
        than the policy tolerates never succeeds, so its retry count is
        the cap (after which the error escapes).
        """
        cap = (policy or RetryPolicy()).max_retries
        return sum(min(times, cap) for times in self.read_errors.values())

    def to_spec(self) -> str:
        """Serialize back to the compact spec-string form."""
        parts: List[str] = []
        if self.seed:
            parts.append(f"seed={self.seed}")
        for ordinal in sorted(self.read_errors):
            times = self.read_errors[ordinal]
            suffix = f"x{times}" if times != 1 else ""
            parts.append(f"read-error@{ordinal}{suffix}")
        for ordinal in sorted(self.slow_reads):
            parts.append(f"slow@{ordinal}:{self.slow_reads[ordinal]}")
        for tear in self.tears:
            parts.append(f"tear@{tear.ordinal}:{tear.offset}")
        for boundary in self.crash_boundaries:
            parts.append(f"crash@scan:{boundary}")
        return ";".join(parts)


class FaultInjector:
    """Executes a :class:`FaultPlan` against the block-device hot path.

    One injector is installed per run (see
    :meth:`repro.core.base.SCCAlgorithm.run`); every
    :class:`~repro.io.blocks.BlockDevice` sharing the run's counter
    consults it.  The injector owns three monotone cursors — counted
    reads, counted writes, and scan boundaries — which is what makes a
    plan deterministic across prefetch/cache configurations that do not
    change counted I/O.
    """

    def __init__(
        self, plan: FaultPlan, policy: Optional[RetryPolicy] = None
    ) -> None:
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy(seed=plan.seed)
        self._reads_seen = 0
        self._writes_seen = 0
        self._boundaries_seen = 0
        self._pending_read_failures: Dict[int, int] = dict(plan.read_errors)
        self._pending_slow_reads: Dict[int, int] = dict(plan.slow_reads)
        self._tears: Dict[int, int] = {t.ordinal: t.offset for t in plan.tears}
        #: Faults actually fired so far (for the ``faults_injected`` tally).
        self.faults_fired = 0

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def next_read_ordinal(self) -> int:
        """Claim the ordinal of the next counted read (advances cursor)."""
        ordinal = self._reads_seen
        self._reads_seen += 1
        return ordinal

    def check_read(self, ordinal: int, path: str) -> None:
        """Raise :class:`TransientIOError` while ``ordinal`` has planned failures."""
        remaining = self._pending_read_failures.get(ordinal, 0)
        if remaining > 0:
            self._pending_read_failures[ordinal] = remaining - 1
            self.faults_fired += 1
            raise TransientIOError(f"injected transient read error at {path}#{ordinal}")

    def take_slow(self, ordinal: int) -> Optional[float]:
        """Consume a planned ``slow@`` delay for ``ordinal``, in seconds.

        Returns ``None`` when the ordinal has no planned delay.
        Consume-once: the same ordinal never fires twice, so retried
        reads (which keep their ordinal) are not re-delayed.  Successive
        attempts of a *failing* read are unaffected — ``slow@`` delays
        the successful completion, not the retry loop.
        """
        delay_ms = self._pending_slow_reads.pop(ordinal, None)
        if delay_ms is None:
            return None
        self.faults_fired += 1
        return delay_ms / 1000.0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def next_write_ordinal(self) -> int:
        """Claim the ordinal of the next counted write (advances cursor)."""
        ordinal = self._writes_seen
        self._writes_seen += 1
        return ordinal

    def torn_offset(self, ordinal: int) -> Optional[int]:
        """Byte prefix to persist for a planned torn write, else ``None``."""
        return self._tears.pop(ordinal, None)

    def record_torn_write(self) -> None:
        """Tally a fired tear (the device raises :class:`TornWriteError`)."""
        self.faults_fired += 1

    # ------------------------------------------------------------------
    # crash path
    # ------------------------------------------------------------------
    def maybe_crash(self) -> None:
        """Fire :class:`SimulatedCrash` if this scan boundary is planned.

        Callers invoke this *after* persisting their boundary
        checkpoint, so the crash models power loss at the worst moment
        that still has a consistent on-disk state to resume from.
        """
        boundary = self._boundaries_seen
        self._boundaries_seen += 1
        if boundary in self.plan.crash_boundaries:
            self.faults_fired += 1
            raise SimulatedCrash(boundary)
