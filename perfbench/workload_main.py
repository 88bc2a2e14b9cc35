"""One workload process of the benchmark (started by ``run.py``).

Phases:

* ``warm``  — fill the logic-table cache, then exit;
* ``setup`` — set the workload up, report the set-up time, tear down;
* ``run``   — set up, run the timed phase (``--seconds`` of work, or
  exactly ``--ops`` operations), run the output checks, and write the
  measured samples and check results to ``--out`` as JSON.

The workload seed is the only input: it is expanded here into the GA
seed, the estimator seeds or the request stream, and the program
receives only those.  With ``--trace-dir`` the layer wrappers of
``tracing.py`` are installed before anything else runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--phase", required=True,
                        choices=("warm", "setup", "run"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--t0", type=float, default=None,
                        help="monotonic time the parent started this process")
    parser.add_argument("--work", required=True,
                        help="working directory for stores and queues")
    parser.add_argument("--cache", required=True,
                        help="logic-table cache directory")
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    if args.trace_dir is not None:
        tracing.instrument(args.trace_dir)
    workload = workloads.WORKLOADS[args.workload](
        seed=args.seed,
        work=Path(args.work),
        cache=Path(args.cache),
        smoke=args.smoke,
        trace_dir=args.trace_dir,
    )
    result: dict = {"workload": args.workload, "phase": args.phase,
                    "pid": os.getpid()}
    try:
        if args.phase == "warm":
            workload.warm()
            return 0
        workload.setup()
        result["setup_s"] = time.monotonic() - t0
        if args.phase == "run":
            result.update(workload.run(args.seconds, args.ops))
            result["checks"] = workload.check()
    finally:
        workload.teardown()
        if args.trace_dir is not None:
            tracing.dump()
    result["parameters"] = workload.parameters()
    if args.out is not None:
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
