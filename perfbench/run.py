#!/usr/bin/env python3
"""Builds and runs the HiLog end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_games --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare A.json B.json [--force]

A run configures and builds perfbench/ (the engine library from src/ plus
the benchmark binary) under .bench_build/, runs it, and prints a host and
build stamp, a readable report of every metric, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics; with --trace 1 they are the
per-layer metrics, and a Chrome trace lands in .bench_build/perfbench/.
Each result is also saved there with its stamp; --compare diffs two saved
results and refuses when their stamps differ unless --force is given.
See perfbench/README.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_games", "solve_programs", "publish_serve")

END_TO_END = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "service.wire.parse_us": "us",
    "service.wire.encode_us": "us",
    "service.executor.queue_wait_p50_ms": "ms",
    "service.executor.queue_wait_p99_ms": "ms",
    "service.executor.eval_p50_ms": "ms",
    "service.executor.eval_p99_ms": "ms",
    "service.session.materialize_ms": "ms",
    "service.session.delta_path_ratio": "ratio",
    "service.snapshot.publish_delta_ms": "ms",
    "core.query_ms": "ms",
    "core.query.self_ms": "ms",
    "core.fork_ms": "ms",
    "core.engine_ms": "ms",
    "transform.magic_rewrite_ms": "ms",
    "eval.magic_eval_ms": "ms",
    "eval.magic.facts_per_query": "count",
    "eval.magic.answer_yield": "ratio",
    "eval.kernel.ops_per_query": "count",
    "eval.kernel.ops_per_solve": "count",
    "eval.kernel.cache_hit_ratio": "ratio",
    "eval.col.fallback_share": "ratio",
    "eval.index.probes": "count",
    "lang.load_ms": "ms",
    "analysis.analyze_ms": "ms",
    "analysis.modular_ms": "ms",
    "ground.ground_ms": "ms",
    "ground.instances": "count",
    "eval.scheduler.self_ms": "ms",
    "sched.components": "count",
    "sched.atom_sccs": "count",
    "maint.apply_delta_ms": "ms",
    "maint.solve_ms": "ms",
    "maint.compose_text_ms": "ms",
    "maint.skip_ratio": "ratio",
    "maint.overdeleted": "count",
    "maint.rederived": "count",
    "term.interned_per_query": "count",
    "term.interned_per_solve": "count",
    "bench.publisher_late_ms": "ms",
    "trace.overhead_query_p50_ms": "ms",
    "trace.overhead_solve_ms": "ms",
    "trace.layer_self_sum_ms": "ms",
    "trace.solve_ms": "ms",
}

# Stamp fields that must match before two results are compared. The
# source revision is recorded but may differ: comparing two revisions is
# the point.
STAMP_MATCH = ("nproc", "cpu_model", "compiler", "build_type", "workload",
               "seed", "seconds", "trace")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = (ROOT / base).resolve()
    if ROOT.resolve() not in path.parents and path != ROOT.resolve():
        fail("build directory must lie inside the checkout: %s" % path)
    return path / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark binary; logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no engine sources at %s; run from a full checkout" %
             (ROOT / "src"))
    cmake_dir = out / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "hilog_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (cmd[:2], error))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return cmake_dir / "hilog_perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """Git sha when the checkout is a repository, and always a digest of
    the engine and benchmark sources."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def run(args):
    out = build_dir()
    binary = build(out)
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    # A relative socket path stays short (sun_path holds 108 bytes) however
    # deep the checkout lies; the binary runs from the checkout root.
    socket = os.path.relpath(runs / ("s%d.sock" % os.getpid()), ROOT)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", socket]
    trace_path = runs / (tag + ".trace.json")
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if os.path.exists(ROOT / socket):
            os.unlink(ROOT / socket)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark binary exited %d" % done.returncode)
    raw = json.loads(lines[-1])

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    missing = []
    for name, unit in wanted.items():
        value = raw["metrics"].get(name)
        if value is None:
            if args.trace:
                # A layer this workload never enters reads 0.
                value = 0.0
            else:
                missing.append(name)
                continue
        metrics[name] = {"value": value, "unit": unit}
    sha, digest = source_revision()
    stamp = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "git_sha": sha,
        "source_digest": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    correct = bool(raw["correct"]) and failed == 0 and not missing
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    saved = dict(result, stamp=stamp, report=raw["report"],
                 errors=raw["errors"])
    (runs / (tag + ".json")).write_text(json.dumps(saved, indent=1) + "\n")

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, entry in sorted(raw["report"].items()):
        print("report %-28s %14.4f %s" % (name, entry["value"], entry["unit"]))
    print("report %-28s %14.4f %s" % ("fail_frac", failed / max(attempted, 1),
                                      "ratio"))
    for error in raw["errors"]:
        print("error " + error)
    if missing:
        print("error missing metrics: " + ", ".join(missing))
    if args.trace:
        print("trace " + os.path.relpath(trace_path, ROOT))
    print(json.dumps(result))


def compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    differ = [k for k in STAMP_MATCH if a["stamp"].get(k) != b["stamp"].get(k)]
    if differ and not args.force:
        for k in differ:
            print("stamp %s differs: %r vs %r" %
                  (k, a["stamp"].get(k), b["stamp"].get(k)), file=sys.stderr)
        print("refusing to compare; pass --force to override", file=sys.stderr)
        sys.exit(1)
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        if va is None or vb is None:
            print("%-36s %s -> %s" % (name, va, vb))
            continue
        change = "%+.1f%%" % (100.0 * (vb - va) / va) if va else "n/a"
        print("%-36s %14.4f -> %14.4f  %s" % (name, va, vb, change))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()
    if args.compare:
        compare(args)
    elif args.workload:
        if args.seconds < 1 or args.seed < 0:
            fail("--seconds must be >= 1 and --seed >= 0")
        run(args)
    else:
        parser.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
