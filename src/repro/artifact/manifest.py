"""Artifact manifests: SHA-256 over what the I/O model determines.

A manifest pins one fingerprint per completed cell, computed over the
cell's *deterministic* projection (counted block transfers, iteration
counts, SCC totals, partition fingerprint — see
:func:`repro.artifact.summary.deterministic_cell`).  Wall-clock never
enters the hash, so two sweeps of the same tier — on different
machines, or one interrupted and resumed — produce byte-identical
``MANIFEST.json`` files.  That identity is the CI gate: drift in any
counted quantity changes a cell hash, and a cell that flips between
ok and INF appears/disappears from the manifest entirely.

Non-ok cells (``INF``/``DNF``) are excluded: whether a slow baseline
exceeds a wall-clock budget is machine-dependent, which is exactly the
kind of fact a manifest must not pin.  The smoke tier is constructed
so every cell completes; at paper tier the INF cells live in
``summary.json`` only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np

from repro.artifact.summary import SummaryData, deterministic_cell

#: Bump on incompatible manifest layout changes.
MANIFEST_SCHEMA_VERSION = 1


def partition_fingerprint(labels: "np.ndarray") -> str:
    """SHA-256 over the canonicalised SCC labels.

    The same fingerprint the bench-regression gate pins.  Labels are
    relabelled by :func:`~repro.core.base.canonicalize_labels`, which
    ranks them by sorted label *value*, not by first appearance: two
    labellings of one partition hash identically only when their label
    values are in the same order (e.g. two runs of one algorithm, or
    labels that are already contiguous the same way).  Tarjan's labels
    and 1P-SCC's, for instance, can hash differently.
    """
    from repro.core.base import canonicalize_labels

    canonical, _ = canonicalize_labels(labels)
    return hashlib.sha256(
        np.ascontiguousarray(canonical, dtype="<i8").tobytes()
    ).hexdigest()


def cell_fingerprint(cell: Dict[str, object]) -> str:
    """SHA-256 over a cell's canonical deterministic projection."""
    canonical = json.dumps(
        deterministic_cell(cell), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(summary: SummaryData) -> Dict[str, object]:
    """Manifest dict for a sweep summary (ok cells only)."""
    cells = {
        cell_id: cell_fingerprint(cell)
        for cell_id, cell in sorted(summary.cells.items())
        if cell.get("status") == "ok"
    }
    root = hashlib.sha256(
        "\n".join(f"{cell_id} {digest}" for cell_id, digest
                  in sorted(cells.items())).encode("utf-8")
    ).hexdigest()
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": "repro-artifact-manifest",
        "tier": summary.tier,
        "scale": summary.scale,
        "cells": cells,
        "root": root,
    }


def manifest_json(manifest: Dict[str, object]) -> str:
    """Canonical serialization — the byte-identity contract."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def load_manifest(path: str) -> Dict[str, object]:
    """Load a manifest; raises ``ValueError`` on malformed content."""
    with open(path, "r", encoding="utf-8") as handle:  # repro: allow[IO001]
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("kind") != "repro-artifact-manifest":
        raise ValueError(f"{path}: not a repro-artifact manifest")
    if data.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported manifest schema {data.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    return data


def diff_manifests(
    golden: Dict[str, object], current: Dict[str, object]
) -> List[str]:
    """Human-readable drift between two manifests (empty == identical)."""
    problems: List[str] = []
    for key in ("tier", "scale"):
        if golden.get(key) != current.get(key):
            problems.append(
                f"{key}: current {current.get(key)!r} != "
                f"golden {golden.get(key)!r}"
            )
    golden_cells: Dict[str, str] = dict(golden.get("cells", {}))  # type: ignore[arg-type]
    current_cells: Dict[str, str] = dict(current.get("cells", {}))  # type: ignore[arg-type]
    for cell_id in sorted(set(golden_cells) | set(current_cells)):
        if cell_id not in current_cells:
            problems.append(
                f"{cell_id}: in golden but missing from this sweep "
                f"(cell removed, or no longer completes)"
            )
        elif cell_id not in golden_cells:
            problems.append(
                f"{cell_id}: produced by this sweep but not in golden "
                f"(new cell, or a previously-INF cell now completes)"
            )
        elif golden_cells[cell_id] != current_cells[cell_id]:
            problems.append(
                f"{cell_id}: fingerprint drift "
                f"{current_cells[cell_id][:12]}… != "
                f"golden {golden_cells[cell_id][:12]}…"
            )
    if not problems and golden.get("root") != current.get("root"):
        problems.append(
            f"root hash drift {current.get('root')!r} != "
            f"{golden.get('root')!r} with identical cells "
            f"(manifest corruption)"
        )
    return problems
