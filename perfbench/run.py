"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer metrics.  Notes (checks,
premises, setup samples) come first; the last stdout line is the result
object.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("paper_tasks", "serve_cold", "serve_sessions")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.adopt_orphans()
    try:
        common.require_sources()
        common.compile_sources()
        if args.workload == "paper_tasks":
            from perfbench import paper

            paper.run(args.seed, args.seconds, bool(args.trace))
        else:
            from perfbench import serve

            serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchmarkError as error:
        print("perfbench: %s" % (error,), file=sys.stderr)
        return 2
    finally:
        common.stop_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get("PERFBENCH_SHARD_LAYERS"):
    # A shard spawned by the traced run's in-process service imports this
    # script as its main module: wrap the library there too.
    common.require_sources()
    from perfbench import layers as _layers

    _layers.install_in_shard()
