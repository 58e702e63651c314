"""One run of an in-process workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --result PATH
                                [--size full|tiny] [--trace] [--setup-only]

run.py starts this with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS/OpenMP thread variables already set, so they hold before numpy loads.
Times are CLOCK_MONOTONIC readings (``time.monotonic``), comparable with the
parent's, which took its own reading just before spawning this process.
The result JSON goes to PATH; the exit code is 0 whenever the run finished,
even if items failed, since failures are data.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _rusage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_kb": ru.ru_maxrss, "cpu_s": ru.ru_utime + ru.ru_stime}


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.monotonic()
    import berglab  # noqa: F401 - timed for process.import_s
    import_s = time.monotonic() - t0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    import workloads

    items = workloads.setup(args.workload, args.seed, args.size)
    t_setup = time.monotonic()
    result = {"import_s": import_s, "t_setup_end": t_setup}
    if not args.setup_only:
        outcomes = []
        for label, item in items:
            index = tracer.begin("item", label) if tracer else None
            try:
                ok, error = bool(item()), None
            except Exception as exc:  # a raising item counts as failed; the run goes on
                ok, error = False, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.end(index)
            outcomes.append({"item": label, "ok": ok, "error": error})
        result["t_end"] = time.monotonic()
        result["items"] = outcomes
    result.update(_rusage())
    result["versions"] = versions()
    if tracer:
        result["trace"] = tracer.summary()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
