"""Render a run trace as a human-readable span tree with I/O breakdowns.

``repro-scc report trace.jsonl`` turns the paper's accounting claims
into a one-command check: the tree shows, per span, wall time, block
I/O (and its share of the run), sequential-vs-random composition and
event counters, and the per-phase summary counts edge scans — e.g. a
2P-SCC trace should show Tree-Search with exactly one sequential edge
scan and Tree-Construction with at most ``depth(G)`` of them.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.obs.trace import TraceData
from repro.obs.tracer import Span

#: Suffix convention marking a span as one full pass over an edge file.
SCAN_SUFFIX = "-scan"


def _children_map(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span.start_seconds)
    return children


def _descendant_scans(
    span: Span, children: Dict[Optional[int], List[Span]]
) -> List[Span]:
    """All spans in ``span``'s subtree (inclusive) that are edge scans."""
    out: List[Span] = []
    stack = [span]
    while stack:
        node = stack.pop()
        if node.name.endswith(SCAN_SUFFIX):
            out.append(node)
        stack.extend(children.get(node.span_id, ()))
    return out


def _percent(part: int, whole: int) -> str:
    if whole <= 0:
        return "-"
    return f"{100.0 * part / whole:.0f}%"


def _span_line(span: Span, total_io: int) -> str:
    attrs = " ".join(
        f"{key}={value}" for key, value in sorted(span.attributes.items())
        if key != "algorithm"
    )
    label = span.name if not attrs else f"{span.name} [{attrs}]"
    parts = [
        label.ljust(36),
        f"{span.wall_seconds:8.3f}s",
        f"io={span.io.total:>8,}",
        f"({_percent(span.io.total, total_io):>4})",
        f"seq r/w {span.io.seq_reads:,}/{span.io.seq_writes:,}",
    ]
    if span.io.rand_reads or span.io.rand_writes:
        parts.append(f"rand r/w {span.io.rand_reads:,}/{span.io.rand_writes:,}")
    if span.io.cache_hits or span.io.cache_misses:
        lookups = span.io.cache_hits + span.io.cache_misses
        parts.append(
            f"cache {_percent(span.io.cache_hits, lookups)} hit "
            f"({span.io.cache_hits:,}h/{span.io.cache_misses:,}m)"
        )
    if span.io.prefetched:
        parts.append(
            f"prefetch {_percent(span.io.prefetch_stalls, span.io.prefetched)} "
            f"stalled ({span.io.prefetched:,} blocks)"
        )
    if span.io.io_retries:
        reads = span.io.seq_reads + span.io.rand_reads
        per_1k = (
            1000.0 * span.io.io_retries / reads if reads
            else float(span.io.io_retries)
        )
        parts.append(f"retries {span.io.io_retries:,} ({per_1k:.1f}/1k reads)")
    if span.counters:
        counters = " ".join(
            f"{key}={value:,}" for key, value in sorted(span.counters.items())
        )
        parts.append(counters)
    return "  ".join(parts)


def render_report(trace: TraceData, max_depth: Optional[int] = None) -> str:
    """Format the span tree plus per-phase and per-file summaries.

    ``max_depth`` prunes the tree display below the given depth (the
    phase and file summaries always cover the full trace).
    """
    lines: List[str] = []
    metadata = trace.metadata
    described = ", ".join(
        f"{key}={value}" for key, value in sorted(metadata.items())
    )
    lines.append(
        f"trace schema v{trace.schema_version}"
        + (f" — {described}" if described else "")
    )
    children = _children_map(trace.spans)
    roots = children.get(None, [])
    total_io = sum(span.io.total for span in roots)
    total_wall = sum(span.wall_seconds for span in roots)
    lines.append(
        f"total: {total_io:,} block I/Os, {total_wall:.3f}s wall, "
        f"{len(trace.spans)} spans"
    )
    cache_hits = sum(span.io.cache_hits for span in roots)
    cache_misses = sum(span.io.cache_misses for span in roots)
    prefetched = sum(span.io.prefetched for span in roots)
    stalls = sum(span.io.prefetch_stalls for span in roots)
    if cache_hits or cache_misses:
        lines.append(
            f"page cache: {cache_hits:,} hits / {cache_misses:,} misses "
            f"({cache_hits:,} block reads avoided — hits are never "
            "charged as block I/O)"
        )
    if prefetched:
        lines.append(
            f"prefetch: {prefetched:,} blocks pipelined, {stalls:,} stalls "
            f"({_percent(prefetched - stalls, prefetched)} latency hidden)"
        )
    lines.append("")

    # --- the span tree.
    for root in roots:
        stack: List[tuple] = [(root, "", "")]
        while stack:
            span, prefix, child_prefix = stack.pop()
            lines.append(prefix + _span_line(span, total_io))
            if max_depth is not None and span.depth >= max_depth:
                continue
            kids = children.get(span.span_id, [])
            # Push in reverse so the earliest child is rendered first.
            for index in range(len(kids) - 1, -1, -1):
                last = index == len(kids) - 1
                connector = "└─ " if last else "├─ "
                continuation = "   " if last else "│  "
                stack.append(
                    (kids[index], child_prefix + connector,
                     child_prefix + continuation)
                )

    # --- per-phase scan accounting (the paper's claims, one per line).
    phase_lines: List[str] = []
    for root in roots:
        for phase in children.get(root.span_id, []):
            scans = _descendant_scans(phase, children)
            if not scans:
                continue
            # A full pass pays exactly one random read: the rewind seek
            # back to block 0.  Anything beyond that means the scan
            # genuinely jumped around.
            sequential_only = all(
                scan.io.rand_reads <= 1 and scan.io.rand_writes == 0
                for scan in scans
            )
            seq_reads = sum(scan.io.seq_reads for scan in scans)
            phase_lines.append(
                f"  {phase.name}: {len(scans)} "
                f"{'sequential ' if sequential_only else ''}edge "
                f"scan{'s' if len(scans) != 1 else ''}, "
                f"{seq_reads:,} seq block reads, "
                f"{_percent(phase.io.total, total_io)} of run I/O"
            )
    if phase_lines:
        lines.append("")
        lines.append("phases:")
        lines.extend(phase_lines)

    # --- per-file attribution (rolled up on the roots).
    file_totals: Dict[str, object] = {}
    for root in roots:
        for path, stats in root.files.items():
            existing = file_totals.get(path)
            file_totals[path] = stats if existing is None else existing + stats  # type: ignore[operator]
    if file_totals:
        lines.append("")
        lines.append("files:")
        for path in sorted(file_totals, key=lambda p: -file_totals[p].total):  # type: ignore[union-attr]
            stats = file_totals[path]
            lines.append(
                f"  {os.path.basename(path)}: "
                f"{stats.reads:,} reads / {stats.writes:,} writes "  # type: ignore[union-attr]
                f"({_percent(stats.total, total_io)})"  # type: ignore[union-attr]
            )
    return "\n".join(lines)
