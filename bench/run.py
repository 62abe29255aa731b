#!/usr/bin/env python3
"""End-to-end benchmark of xfersel source selection.

    python3 bench/run.py --workload otce-guided --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

Each run builds seeded synthetic pools with the program's ``synth``
generator and ``write_bundle`` (timed as set-up), then, in a worker process,
calls the real CLI entry point ``xfersel.cli.main`` in-process, one
``select`` or ``synth-eval`` operation at a time, for ``--seconds``.  The outputs are
checked against computations made in ``bench/checks.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``bench/layers.py`` with ``--trace 1``.  A full record
of the run goes to ``bench/results/``.  See ``bench/README.md``.
"""

import os

# One BLAS thread, so the CLI's --threads is the only parallelism and a
# shared 2-core machine is not oversubscribed.  Set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_program() -> None:
    """Put this checkout's ``src`` first and refuse an xfersel from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import xfersel
    except ImportError as exc:
        sys.exit(f"bench: cannot import xfersel from {SRC}: {exc}")
    if Path(xfersel.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: xfersel came from {xfersel.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xfersel benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every check on tiny pools, clean and corrupted")
    parser.add_argument("--op-loop", action="store_true",
                        help=argparse.SUPPRESS)  # the measuring worker process
    args = parser.parse_args(argv)

    _import_program()
    import harness
    if args.op_loop:
        harness.serve_op_loop(sys.stdin, sys.stdout)
        return 0
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")

    w = harness.WORKLOADS[args.workload]
    env = harness.environment(w, args.seconds, bool(args.trace), BLAS_THREADS)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    record = harness.measure(w, args.seed, args.seconds, bool(args.trace))
    record["env"] = env
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"# {w.name}: attempted {record['attempted']}, failed {record['failed']}",
          flush=True)
    for problem in record["problems"] + record["errors"]:
        print("# problem: " + problem, flush=True)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
