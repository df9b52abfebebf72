"""The metric contract: names and units, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single list of every
metric the benchmark reports.  Workloads compute values by name and
take the units from here, so a renamed or added metric is edited in
one place, and a metric the code does not produce fails the run.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, Mapping, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def metrics(kind: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, unit)`` of every ``"end_to_end"`` or ``"per_layer"`` metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple((entry["name"], entry["unit"]) for entry in spec[kind])


def with_units(kind: str, values: Mapping[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every metric of ``kind`` as ``(value, unit)``, in contract order.

    Raises :class:`KeyError` naming the metrics ``values`` lacks, and
    :class:`ValueError` naming the ones the contract does not list.
    """
    names = [name for name, _ in metrics(kind)]
    missing = [name for name in names if name not in values]
    if missing:
        raise KeyError(f"{kind} metrics not computed: {missing}")
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json {kind}: {unknown}")
    return {name: (float(values[name]), unit) for name, unit in metrics(kind)}
