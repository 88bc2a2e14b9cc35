"""Start one ``repro`` CLI command (``serve`` or ``worker``) for the benchmark.

Usage::

    python3 perfbench/launch.py --cache DIR [--trace-dir DIR] -- serve ...

The launcher runs the command from this checkout's ``src`` with three
benchmark settings: the logic-table cache lives in *--cache* (inside the
checkout), the program's own ``repro.telemetry`` stays disarmed (``repro
serve`` would otherwise arm it on its store), and with *--trace-dir* the
benchmark's span wrappers are installed first.  SIGTERM ends the process
after writing its spans.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import repro.telemetry as telemetry
    from repro.acasx import cache

    cache.DEFAULT_CACHE_DIR = Path(args.cache)
    telemetry.arm = lambda *a, **k: None
    if args.trace_dir is not None:
        import tracing

        tracing.instrument(args.trace_dir)

    def stop(signum, frame):
        if args.trace_dir is not None:
            import tracing

            tracing.dump()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    from repro.cli import main as repro_main

    code = repro_main(command)
    stop(None, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
