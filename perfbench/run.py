"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload collect-fleet --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` the ``per_layer`` list, from a
run that records spans around every layer's public entry points (and
writes them to ``.perfbench_traces/``).  Exit status 0 means the run
finished and its metrics were printed, whether or not the output checks
passed (``correct`` says which); anything else means it did not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    source = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    # One BLAS thread: serve-mixed's generator and batcher threads then
    # fit a 2-core machine without BLAS workers competing with them.
    # Must be set before numpy is first imported.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(source), str(ROOT)]

    from perfbench.measure import environment
    from perfbench.workloads import WORKLOADS, run_workload

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for key, value in environment().items():
        print(f"env {key} {value}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    outcome = result.outcome
    print(f"digest {outcome.digest}")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in outcome.figures.items():
        print(f"figure {name} {value} {unit}")
    missing = [metric["name"] for metric in wanted
               if result.metrics.get(metric["name"]) is None]
    if missing:
        print(f"perfbench: {args.workload} produced no value for "
              f"{', '.join(missing)} (too few samples at --seconds "
              f"{args.seconds}?)", file=sys.stderr)
        return 3
    metrics = {}
    for metric in wanted:
        value = float(result.metrics[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']} {value!r} {metric['unit']}")
    if result.tracer is not None:
        traces = ROOT / ".perfbench_traces"
        traces.mkdir(exist_ok=True)
        result.tracer.write(traces / f"{args.workload}-seed{args.seed}.json")
    print(json.dumps({"correct": result.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
