"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {feed,history,cold,scatter} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
it installs the layer probes and prints every per-layer metric.  Each
metric line carries its unit and sample count; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any wrong answer makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

#: Every end-to-end metric, in report order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("slo_qps", "1/s"),
    ("ingest_p99_ms", "ms"),
    ("ingest_rps", "records/s"),
    ("recall_at_10", "ratio"),
    ("peak_rss_mb", "MiB"),
)

WORKLOADS = ("feed", "history", "cold", "scatter")


def _load(workload: str):
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {source}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(source))
    if workload == "feed":
        from perfbench import wl_feed as module
    elif workload == "scatter":
        from perfbench import wl_scatter as module
    else:
        from perfbench import wl_inproc as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = _load(args.workload)
    from perfbench import common
    from perfbench.layers import PER_LAYER

    common.fix_mmap_threshold()
    work = common.WorkDir(args.workload)
    try:
        if args.workload in ("history", "cold"):
            result = module.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        else:
            result = module.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        work.close()

    facts = common.host_facts(args.seed, getattr(module, "FSYNC", "always"))
    print(f"# workload {args.workload}, trace {args.trace}, host {json.dumps(facts)}")
    for note in result.notes:
        print(f"# {note}")
    verdicts = result.verdicts
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    print(
        f"# answers checked {verdicts.checked}, wrong {verdicts.failed}; "
        f"error_rate {error_rate:.6f} ({result.failed} of {result.attempted} operations)"
    )
    for reason in verdicts.reasons:
        print(f"# failure: {reason}")
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        value = float(result.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        count = result.counts.get(name, "")
        print(f"{name:32s} {value:14.6f} {unit:10s} {count}")
    correct = result.failed == 0 and result.attempted > 0 and verdicts.checked > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
