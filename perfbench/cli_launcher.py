"""One CLI command in a fresh process, through ``berglab.cli.main``.

    python3 perfbench/cli_launcher.py --sidecar PATH [--trace] [--run-id ID] -- ARGS...

ARGS are the ``berglab`` command line.  The sidecar JSON records when the
process could first call ``berglab.cli.main`` (a CLOCK_MONOTONIC reading, as
in worker.py), the import time, peak RSS, CPU time and, with ``--trace``, the
spans recorded by the same wrappers the in-process workloads use.  The
process exits with the command's own exit code.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.monotonic()
    import berglab
    import_s = time.monotonic() - t0
    import berglab.cli
    t_ready = time.monotonic()

    tracer = None
    if args.trace:
        import berglab.config
        import berglab.reporting
        import tracing
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    try:
        code = berglab.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is this command's failure, reported to run.py
        traceback.print_exc()
        code = 1
    ru = resource.getrusage(resource.RUSAGE_SELF)
    from worker import versions
    sidecar = {"t_ready": t_ready, "import_s": import_s, "peak_rss_kb": ru.ru_maxrss,
               "cpu_s": ru.ru_utime + ru.ru_stime, "versions": versions()}
    if tracer:
        sidecar["trace"] = tracer.summary()
    with open(args.sidecar, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
