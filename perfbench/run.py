"""berglab benchmark: cold-process study workloads, correctness-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory and the
program is imported from its ``src``.  Each run of a workload is a fresh
process, so module caches (such as the translation cache in
``berglab.operators``) start cold, as for a study script or a CLI user.  Runs
repeat, one after another, until the next one would end after S seconds,
judged by the slowest run so far; there are always at least two, so that the
median never rests on a single run.  Every item's result is checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the runs); with ``--trace 1`` it carries the per-layer
metrics from traced runs, which alternate with untraced ones so that the
tracing overhead can be reported, and the spans are written to
``.perfbench-out/`` in the checkout.  The lines before it give quartiles,
sample counts, the failure rate and the environment stamp.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("compactness", "rank1", "localize", "cli")
CLI_COMMANDS = {
    "full": ("kernel", "toeplitz", "berezin", "rkt", "essnorm", "rf", "schur",
             "covering", "localize", "rank1", "verify-axioms"),
    "tiny": ("kernel", "schur", "verify-axioms"),
}
# One BLAS/OpenMP thread: fixed, never above nproc, and set in the workload
# process's environment so it holds before numpy loads (the CLI's --threads
# flag cannot do that today).
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = {"full": 3, "tiny": 1}   # least set-up-only processes per invocation
HARD_LIMIT_S = 170.0                    # everything ends before 180 s

# Reference rows of the ROADMAP baseline table, reported next to the traced
# per-call means without gating: (span, tag, label, seconds).
ROADMAP_ROWS = (
    ("operators.toeplitz_matrix", ["bergman_disc", 24, 3],
     "toeplitz_matrix poly n=24 d=3", 0.091),
    ("operators.rank_one_toeplitz_sum", ["bergman_disc", 24, 3],
     "rank_one_toeplitz_sum pair n=24 d=3", 1.18),
    ("analysis.essential_norm_estimate", ["bergman_disc", 24, 2],
     "essential_norm_estimate n=24, cold (first call per process)", 2.55),
)

SELF_TIMED = (
    "quadrature.build_rule", "quadrature.ball_rule", "quadrature.rudin_forelli",
    "coeffs.scalar_basis_matrix", "operators.toeplitz_matrix",
    "operators.translation_matrix", "operators.translation_certificate",
    "operators.conjugate_operator", "operators.rank_one_toeplitz_sum",
    "analysis.essential_norm_estimate", "analysis.berezin_decay_profile",
    "analysis.rkt_boundedness_check", "covering.build_covering",
    "covering.cell_diameters", "covering.localization_error", "spaces",
    "config.load_config", "reporting.write", "cli.main",
)
COUNTS = (
    ("quadrature.build_rule.calls", "count"), ("quadrature.build_rule.nodes", "count"),
    ("quadrature.ball_rule.calls", "count"), ("quadrature.ball_rule.nodes", "count"),
    ("coeffs.scalar_basis_matrix.calls", "count"),
    ("coeffs.scalar_basis_matrix.entries", "count"),
    ("operators.toeplitz_matrix.calls", "count"),
    ("operators.translation_matrix.calls", "count"),
    ("operators.translation_certificate.calls", "count"),
    ("covering.build_covering.calls", "count"),
    ("covering.localization_error.calls", "count"),
    ("spaces.calls", "count"), ("reporting.write.calls", "count"),
    ("reporting.write.bytes", "B"),
)
RATIOS = ("coeffs.scalar_basis_matrix", "operators.translation_matrix")


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing program, crash, timeout)."""


# ---------------------------------------------------------------------------
# processes

class Session:
    """Per-invocation state: paths, child environment and the time limit."""

    def __init__(self, workload, seed, size, work: Path):
        self.workload, self.seed, self.size, self.work = workload, seed, size, work
        self.t_start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{var: str(THREADS) for var in THREAD_VARS})
        self.n_proc = 0
        self.versions = None

    def spawn(self, argv):
        """Run one child to completion; return (t_spawn, exit code, stderr)."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            raise BenchError("time limit reached")
        self.n_proc += 1
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{argv[1]} exceeded the time limit")
        return t_spawn, proc.returncode, err.decode(errors="replace")

    def worker(self, run_id, trace=False, setup_only=False) -> dict:
        result = self.work / f"{run_id}.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--size", self.size, "--result", str(result),
                "--run-id", run_id]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        t_spawn, code, err = self.spawn(argv)
        if code != 0 or not result.exists():
            raise BenchError(f"workload process failed (exit {code}): {err.strip()[-2000:]}")
        data = json.loads(result.read_text())
        self.versions = data["versions"]
        run = {"setup_s": [data["t_setup_end"] - t_spawn], "cpu_s": data["cpu_s"],
               "import_s": data["import_s"], "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
               "trace": data.get("trace")}
        if not setup_only:
            run["wall_s"] = data["t_end"] - data["t_setup_end"]
            run["items"] = [(o["item"], o["ok"], o["error"]) for o in data["items"]]
        return run

    # -- cli workload --------------------------------------------------------

    def cli_inputs(self) -> Path:
        """Seeded Fock config (from configs/fock.json) and Schur kernel file."""
        rng = random.Random(self.seed)
        u = rng.uniform
        d, nx = 2, 24
        kernel = {"values": [[[[u(0.0, 1.0) for _ in range(d)] for _ in range(d)]
                              for _ in range(nx)] for _ in range(nx)],
                  "mu": [u(0.5, 1.0) / nx for _ in range(nx)],
                  "nu": [u(0.5, 1.0) / nx for _ in range(nx)], "p": 2.0}
        kernel_path = self.work / "schur_kernel.json"
        kernel_path.write_text(json.dumps(kernel))
        cfg = json.loads((HERE / "configs" / "fock.json").read_text())
        if self.size == "tiny":
            cfg["n_modes"] = 6
        cfg["seed"] = self.seed
        cfg["schur_kernel_file"] = str(kernel_path)
        cfg["symbols"] = {
            "drift": {"type": "poly", "entries": [
                {"i": 0, "k": 0, "terms": [{"a": 1, "b": 0, "c": u(0.2, 0.5)},
                                           {"a": 0, "b": 0, "c": u(0.1, 0.4)}]},
                {"i": 0, "k": 1, "terms": [{"a": 0, "b": 1, "c": u(-0.2, 0.2)}]},
                {"i": 1, "k": 1, "terms": [{"a": 0, "b": 0, "c": u(0.3, 0.7)}]}]},
            "bump": {"type": "ball", "center": [u(-0.5, 0.5), u(-0.5, 0.5)],
                     "radius": u(0.8, 1.2),
                     "matrix": [[u(0.5, 1.0), 0.0], [0.0, u(0.5, 1.0)]]},
        }
        path = self.work / "fock_config.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def cli_batch(self, run_id, config: Path, trace=False) -> dict:
        """Every command in its own process; wall time spans the whole batch."""
        out = self.work / f"{run_id}-reports"
        setups, rss, cpu, imports, traces, items = [], [], 0.0, [], [], []
        t_first = None
        for command in CLI_COMMANDS[self.size]:
            sidecar = self.work / f"{run_id}-{command}.json"
            argv = [sys.executable, str(HERE / "cli_launcher.py"), "--sidecar", str(sidecar),
                    "--run-id", run_id] + ["--trace"] * trace
            argv += ["--", command, "--config", str(config), "--out", str(out)]
            t_spawn, code, err = self.spawn(argv)
            t_first = t_spawn if t_first is None else t_first
            if not sidecar.exists():
                raise BenchError(f"cli launcher failed (exit {code}): {err.strip()[-2000:]}")
            side = json.loads(sidecar.read_text())
            setups.append(side["t_ready"] - t_spawn)
            rss.append(side["peak_rss_kb"] / 1024.0)
            cpu += side["cpu_s"]
            imports.append(side["import_s"])
            traces.append(side.get("trace"))
            self.versions = side["versions"]
            error = _check_cli(command, code, out, err)
            items.append((command, error is None, error))
        wall = time.monotonic() - t_first
        return {"setup_s": setups, "wall_s": wall, "cpu_s": cpu,
                "import_s": statistics.median(imports), "peak_rss_mb": max(rss),
                "items": items, "trace": _merge_traces(traces) if trace else None}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _check_cli(command, code, out: Path, err: str):
    """None if the command passed: exit 0, strict-JSON report, all_pass for verify-axioms."""
    if code != 0:
        return f"exit {code}: {err.strip()[-500:]}"
    path = out / (command.replace("-", "_") + ".json")
    try:
        report = json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return f"report {path.name}: {exc}"
    result = report.get("result") if isinstance(report, dict) else None
    if command == "verify-axioms" and not (isinstance(result, dict)
                                           and result.get("all_pass") is True):
        return "verify-axioms: all_pass is not true"
    return None


def _merge_traces(traces) -> dict:
    """Sum self times and counts over the command processes of one batch."""
    merged = {"self_s": {}, "counts": {}, "spans": []}
    for tr in traces:
        for key in ("self_s", "counts"):
            for name, value in tr[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["spans"].extend(tr["spans"])
    return merged


# ---------------------------------------------------------------------------
# measurement loop

def measure(session: Session, seconds: float, traced: bool):
    """Runs until the next would end after `seconds`; traced mode interleaves.

    The next run is predicted to take as long as the slowest so far.  Untraced
    in-process workloads also start a set-up-only process before each run
    (and at the end, up to SETUP_PROBES), so set-up is sampled across the
    whole window.
    """
    config = session.cli_inputs() if session.workload == "cli" else None
    probing = session.workload != "cli" and not traced
    setups, n_probes = [], 0

    def probe():
        nonlocal n_probes
        setups.extend(session.worker(f"probe{n_probes}", setup_only=True)["setup_s"])
        n_probes += 1

    t0 = time.monotonic()
    min_runs = 3 if traced else 2
    runs = {False: [], True: []}
    slowest = 0.0
    k = 0
    while True:
        t_cycle = time.monotonic()
        if probing:
            probe()
        # traced mode: untraced, traced, traced, then alternating from untraced
        trace = traced and k > 0 and (k <= 2 or k % 2 == 0)
        run_id = f"{session.workload}-s{session.seed}-r{k}{'t' if trace else ''}"
        if session.workload == "cli":
            run = session.cli_batch(run_id, config, trace=trace)
        else:
            run = session.worker(run_id, trace=trace)
        runs[trace].append(run)
        k += 1
        slowest = max(slowest, time.monotonic() - t_cycle)
        if k >= min_runs and time.monotonic() - t0 + slowest > seconds:
            break
    while probing and n_probes < SETUP_PROBES[session.size]:
        probe()
    for run in runs[False]:
        setups += run["setup_s"]
    return runs[False], runs[True], setups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _line(name, values, unit):
    q1, q3 = _quartiles(values)
    return (f"  {name:<12} {statistics.median(values):12.6f} {unit:<3} "
            f"(q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)})")


def per_layer(untraced, traced):
    """Per-layer metrics: time medians over traced runs, counts that must repeat."""
    metrics, mismatched = {}, []
    summaries = [r["trace"] for r in traced]
    metrics["process.cpu_s"] = (statistics.median(r["cpu_s"] for r in traced), "s")
    metrics["process.import_s"] = (statistics.median(r["import_s"] for r in traced), "s")
    for name in SELF_TIMED:
        metrics[name + ".self_s"] = (
            statistics.median(s["self_s"].get(name, 0.0) for s in summaries), "s")
    counts = summaries[0]["counts"]
    for s in summaries[1:]:
        mismatched += [name for name in set(counts) | set(s["counts"])
                       if s["counts"].get(name) != counts.get(name)]
    for name, unit in COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    for name in RATIOS:
        calls = counts.get(name + ".calls", 0)
        metrics[name + ".distinct_ratio"] = (
            counts[name + ".distinct"] / calls if calls else 0.0, "ratio")
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    return metrics, sorted(set(mismatched))


def crosscheck(traced):
    """Per-call means next to the ROADMAP baseline rows (reported, never gated)."""
    lines = []
    for span, tag, label, reference in ROADMAP_ROWS:
        durations = []
        for run in traced:
            hits = [s for s in run["trace"]["spans"] if s[0] == span and s[5] == tag]
            if span == "analysis.essential_norm_estimate":
                hits = hits[:1]
            durations += [s[2] - s[1] for s in hits]
        if durations:
            lines.append(f"  {label}: traced mean {statistics.fmean(durations):.4f} s "
                         f"over {len(durations)} calls; ROADMAP baseline {reference} s")
    return lines


# ---------------------------------------------------------------------------
# environment stamp

def environment(session: Session) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable"
    try:  # only a repository rooted at ROOT counts; git must not search above it
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "berglab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stamp = {"blas_threads": THREADS, "nproc": os.cpu_count(), "cpu_model": cpu,
             "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}
    stamp.update(session.versions or {})
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: same code paths at toy sizes (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "berglab" / "__init__.py").is_file():
        print(f"perfbench: no berglab sources under {SRC}", file=sys.stderr)
        return 2
    # "Build": byte-compile once, so no run pays for compilation.
    if not compileall.compile_dir(str(SRC / "berglab"), quiet=1) or \
            not compileall.compile_dir(str(HERE), quiet=1):
        print("perfbench: byte-compilation failed", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as work:
        session = Session(args.workload, args.seed, args.size, Path(work))
        try:
            untraced, traced, setups = measure(session, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    runs = untraced + traced
    items = [it for r in runs for it in r["items"]]
    failed = [it for it in items if not it[1]]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"runs {len(untraced)} untraced + {len(traced)} traced  "
          f"processes {session.n_proc}")
    print(_line("wall_s", [r["wall_s"] for r in untraced], "s"))
    print(_line("setup_s", setups, "s"))
    print(_line("peak_rss_mb", [r["peak_rss_mb"] for r in untraced], "MB"))
    print(f"  {'fail_rate':<12} {len(failed) / len(items):12.6f} 1   "
          f"({len(failed)} of {len(items)} items failed)")
    for label, _, error in failed[:10]:
        print(f"  FAILED {label}: {error or 'check did not hold'}")
    print("waiting: not applicable - no berglab layer has a queue or retries, "
          "so no waiting time is reported")
    print("env: " + json.dumps(environment(session), sort_keys=True))

    correct = not failed
    if args.trace:
        metrics, mismatched = per_layer(untraced, traced)
        print("counts are computed by the program (calls, nodes, entries, bytes), "
              "not measured; they must repeat exactly across traced runs")
        if mismatched:
            correct = False
            print("counts that differed between traced runs: " + ", ".join(mismatched))
        print("cross-check against the ROADMAP baseline table (not gated):")
        for line in crosscheck(traced) or ["  (no matching calls in this workload)"]:
            print(line)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "run_id", "tag"],
            "runs": [r["trace"]["spans"] for r in traced]}))
        print(f"spans: {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": len(items), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
