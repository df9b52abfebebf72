"""Benchmark of the SCC system: end-to-end metrics, or a per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload webspam-1p --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Every metric is printed with its unit, the environment is
printed before them, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.
Workloads, metrics and the layer map are described in METHODS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Settings that change wall time several-fold when inherited; cleared
#: for every run (children inherit the cleared environment).
PINNED_ENV = (
    "REPRO_SIM_SEEK_MS",
    "REPRO_SIM_TRANSFER_MS",
    "REPRO_FAULT_PLAN",
    "REPRO_CHECK_INVARIANTS",
)


def _source_digest(root: str) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(package)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_commit(root: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def pin_environment(root: str) -> Dict[str, Any]:
    """Clear the settings in :data:`PINNED_ENV` and describe the host."""
    import numpy

    cleared = {name: os.environ.pop(name) for name in PINNED_ENV if name in os.environ}
    return {
        "cleared_env": sorted(PINNED_ENV),
        "cleared_env_had_values": cleared,
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def _print_outcome(name: str, outcome: Any) -> None:
    for metric, (value, unit) in outcome.metrics.items():
        note = outcome.notes.get(metric, "")
        print(f"  {name:<22} {metric:<30} {value:>14.6g} {unit:<7} {note}")
    for problem in outcome.problems:
        print(f"  {name:<22} PROBLEM {problem}")


def main(argv: Optional[list] = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench import workloads

    env = pin_environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    mode = "traced, per-layer" if args.trace else "untraced, end-to-end"
    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print(f"{name}: seed {args.seed}, {args.seconds:g} s, {mode}", flush=True)
        outcome = workloads.run(name, ROOT, args.seed, args.seconds, bool(args.trace))
        _print_outcome(name, outcome)
        summary["correct"] = summary["correct"] and outcome.correct
        summary["attempted"] += outcome.attempted
        summary["failed"] += outcome.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, (value, unit) in outcome.metrics.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
        results = os.path.join(ROOT, ".perfbench", "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as handle:
            json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "correct": outcome.correct,
                       "attempted": outcome.attempted, "failed": outcome.failed,
                       "metrics": outcome.metrics, "notes": outcome.notes,
                       "problems": outcome.problems, "details": outcome.details},
                      handle, indent=1, default=str)
    summary["attempted"] = max(1, summary["attempted"])
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
