"""Run one freqroute benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; freqroute is imported from its src/
directory. Workloads: sweep-small, sweep-fleet, route-fleet, validate-batch
(see BENCHMARK.json and bench/NOTES.md). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it wraps the layer functions and reports
per-layer metrics, writing the spans to .bench_trace/. Lines before the last
are for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep-small", "sweep-fleet", "route-fleet", "validate-batch")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "freqroute" / "__init__.py").is_file():
        print(f"error: no freqroute sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), Path(tmp))
    if outcome.tracer is not None:
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        outcome.tracer.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl")

    for note in outcome.notes:
        print(note)
    error_rate = outcome.failed / outcome.attempted
    print(f"error_rate {error_rate} ({outcome.failed}/{outcome.attempted})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
