"""Daemon launcher: runs ``repro-scc serve`` and reports on exit.

    python3 -m perfbench.launcher --record out.json [--trace] [--cpu N] -- serve GRAPH ...

Everything after ``--`` goes to :func:`repro.cli.main` unchanged.  With
``--trace`` the layer wrappers are installed first, so the daemon's
builds and queries record spans; ``--cpu`` pins the daemon to one CPU.  When the daemon returns (after a
``shutdown`` request) the launcher writes its peak RSS and, when
traced, the per-layer summary to ``--record``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Any, Dict, List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: launcher --record FILE [--trace] [--cpu N] -- serve ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the daemon to this CPU")
    args = parser.parse_args(argv[:split])
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.cli import main as cli_main

    from perfbench.layers import Probe, Recorder, layer_metrics, summarize

    record: Dict[str, Any] = {}
    if args.trace:
        recorder = Recorder()
        with Probe(recorder):
            code = cli_main(argv[split + 1:])
        summary = summarize(recorder)
        record["layers"] = layer_metrics(summary)
        record["query_s"] = summary["durations"]["service.query"]
        record["build_io"] = summary["values"].get("service.build_io", [])
        record["build_self_s"] = summary["self"].get("service.snapshot_build", 0.0)
    else:
        code = cli_main(argv[split + 1:])
    record["exit_code"] = code
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = args.record + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle)
    os.replace(tmp, args.record)
    return code


if __name__ == "__main__":
    sys.exit(main())
