"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-32-disp --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every op passed its checks. A result file with the
environment, every set-up and op time and (traced) every span goes to
``perfbench/results/``.

The workload runs in fresh processes of this script: one sets up and runs the
timed phase; with ``--trace 0`` two more only set up, so that ``setup_s`` is
the median of three cold set-ups, each timed from process start to the
first timed op. The untraced timed phase samples a fixed reference kernel
between ops and reports op times at the reference host speed
(``workloads.HostSpeed``); the wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

# One client on one core: BLAS stays single-threaded so the other core absorbs
# unrelated load instead of the benchmark's own threads fighting over it.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 3    # cold set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
TRACE_MIN_OPS = 3

END_TO_END_UNITS = {"op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def prepare_imports():
    """Pin the BLAS threads and make ``src/`` importable; call before numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def tail(seconds):
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples above it."""
    n = len(seconds)
    return sorted(seconds)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def closed_loop(session, clock, seconds, min_ops):
    """Run ops back to back for ``seconds`` and at least ``min_ops`` ops."""
    first = len(clock.ops)
    deadline = time.perf_counter() + seconds
    while True:
        done = clock.ops[first:]
        left = deadline - time.perf_counter()
        if left <= 0 and len(done) >= min_ops:
            return done
        # start to start, so that host-speed samples between ops count too
        typical = (statistics.median(b.start - a.start for a, b in zip(done, done[1:]))
                   if len(done) > 1 else clock.ops[-1].seconds)
        want = max(int(left / typical) + 1, min_ops - len(done))
        session.run(want)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree of its own, else ``unknown``."""
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
    }


def run(workload, seed, seconds, trace, setup_only=False):
    """Set up, run the timed phase and check every op, in this process.

    ``ready`` in the result is the ``time.monotonic()`` instant the set-up
    ended, just before the first timed op; monotonic time is one clock for
    all processes, so the parent can time the set-up from its own spawn.
    Returns the result dict and, for a traced run, the tracer holding the spans.
    """
    from tracing import LAYER_METRICS, Tracer
    from workloads import HostSpeed, OpClock, make_session

    clock = OpClock()
    session = make_session(workload, seed, WORK_DIR / workload.name, clock)
    try:
        session.prepare()
        session.run(1)  # warm-up
        ready = time.monotonic()
        tracer = None
        if setup_only:
            timed = []
        elif trace:
            untraced = closed_loop(session, clock, seconds / 3, TRACE_MIN_OPS)
            tracer = Tracer()
            tracer.install()
            clock.tracer = tracer
            try:
                timed = closed_loop(session, clock, 2 * seconds / 3, TRACE_MIN_OPS)
            finally:
                clock.tracer = None
                tracer.uninstall()
        else:
            clock.host = host = HostSpeed()
            host.sample(clock.ops[-1].seconds)  # the sample before the first timed op
            timed = closed_loop(session, clock, seconds, TAIL_BEYOND + 1)
            clock.host = None
        session.check()
    finally:
        session.close()

    op_s = [op.seconds for op in timed]
    result = {"ready": ready, "attempted": len(clock.ops),
              "failed": sum(1 for op in clock.ops if not op.ok),
              "warmup_s": clock.ops[0].seconds, "op_s": op_s}
    if setup_only:
        return result, None
    result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        first = clock.ops.index(timed[0])
        metrics = tracer.layer_metrics({first + i: s for i, s in enumerate(op_s)})
        metrics["trace.overhead"] = (statistics.median(op_s)
                                     / statistics.median(op.seconds for op in untraced))
        result["metrics"] = metrics
        result["units"] = dict(LAYER_METRICS)
    else:
        result["host"] = {"sample_s": host.samples, "reference_s": host.REFERENCE_S}
        result["scaled_op_s"] = host.scaled(op_s)
        result["ok_ops"] = sum(1 for op in timed if op.ok)
    return result, tracer


def report(result):
    """Print the metrics, write the result file, and return the JSON line."""
    trace = result["trace"]
    unit = result["units"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"closed loop, 1 client, BLAS threads {BLAS_THREADS}, "
          f"{'traced' if trace else 'untraced'}")
    for name, value in result["metrics"].items():
        line = f"{name:<42} {value:>14.6g} {unit[name]}"
        if name == "op_s.tail":
            t = result["tail"]
            line += (f"  (p{t['percentile']:.1f}: {t['beyond']} of "
                     f"{t['samples']} samples beyond)")
        elif name == "setup_s":
            line += f"  (median of {len(result['setup_s'])} cold set-ups)"
        if name in result.get("wall", {}):
            line += f"  [wall {result['wall'][name]:.6g}]"
        print(line)
    if "host" in result:
        host = result["host"]
        print(f"host speed: reference kernel median {statistics.median(host['sample_s']):.6g} s "
              f"a sample, {host['reference_s']} s at reference speed")
    print(f"{'error_rate':<42} {result['error_rate']:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} ops failed)")

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{result['workload']}-seed{result['seed']}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")

    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()},
    })


def run_name(args) -> str:
    """The workload's name, marked when its extent is overridden."""
    return f"{args.workload}-at{args.extent}" if args.extent else args.workload


def launch(args, argv) -> int:
    """Run the workload's processes one after another and report the result."""
    children = ["run"] + ["setup"] * (0 if args.trace else SETUP_RUNS - 1)
    results = []
    for role in children:
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, __file__, *argv, "--role", role],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print(f"error: the {role} process exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        child = json.loads(proc.stdout.splitlines()[-1])
        child["setup_s"] = child.pop("ready") - spawned
        results.append(child)

    main = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    result = {"workload": run_name(args), "seed": args.seed, "trace": args.trace,
              "environment": main.pop("environment"),
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted,
              "setup_s": [r["setup_s"] for r in results],
              "warmup_s": [r["warmup_s"] for r in results],
              "op_s": main["op_s"], "peak_rss_mb": main["peak_rss_mb"]}
    if args.trace:
        result["metrics"], result["units"] = main["metrics"], main["units"]
    else:
        wall, scaled = main["op_s"], main["scaled_op_s"]
        result["host"], result["scaled_op_s"] = main["host"], scaled
        tail_s, tail_pct = tail(scaled)
        result["tail"] = {"percentile": tail_pct, "samples": len(scaled),
                          "beyond": TAIL_BEYOND}
        result["wall"] = {"op_s.p50": statistics.median(wall), "op_s.tail": tail(wall)[0],
                          "ops_per_s": main["ok_ops"] / sum(wall)}
        result["metrics"] = {
            "op_s.p50": statistics.median(scaled),
            "op_s.tail": tail_s,
            "ops_per_s": main["ok_ops"] / sum(scaled),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        result["units"] = END_TO_END_UNITS
    print(report(result))
    return 0 if failed == 0 else 1


def child(args) -> int:
    """One process of the workload: print its raw result as one JSON line."""
    prepare_imports()
    try:
        import symtrans
        import workloads
    except ImportError as e:
        print(f"error: cannot import the program under test: {e}", file=sys.stderr)
        return 2
    if Path(symtrans.__file__).resolve().parent != ROOT / "src" / "symtrans":
        print(f"error: symtrans imported from {symtrans.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.extent:
        workload = dataclasses.replace(workload, name=run_name(args), extent=args.extent)
    result, tracer = run(workload, args.seed, args.seconds, args.trace,
                         setup_only=args.role == "setup")
    if tracer is not None:
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace1.spans.jsonl")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--extent", type=int, default=0,
                        help="cubic volume extent in place of the workload's, "
                             "for reduced-size smoke runs")
    parser.add_argument("--role", choices=("run", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is None:
        return launch(args, argv)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
