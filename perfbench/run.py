"""Benchmark for the `sjm` CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload two-qubit-points --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports `sjm` from `./src`.  The
workload runs as in-process `sjm.cli.main(argv)` calls in a closed loop
(one client, one op at a time) inside a fresh child interpreter with BLAS
pinned to one thread.  Set-up time is the median of five fresh
interpreters, each timed from spawn until `sjm.cli` is imported and the
workload's warm-up op is done; the last of them goes on to measure.  Every
output is checked against an independent oracle after the timed loop.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced cycles and reports per-layer metrics (see tracing.py).  The
lines before the last are for people: an environment stamp, every metric
with its unit, failures, the latency tail, per-command medians and the
inputs known to fail.  The last line is one JSON object.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import KNOWN_FAILING, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
TIME_LIMIT_S = 170.0  # the whole run, set-ups and checks included
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, src: str, workdir: str, deadline: float):
    """Start a child and time it to `ready`; returns (process, set-up seconds)."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--mode", mode, "--workdir", workdir, "--src", src,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(src), text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
    finally:
        killer.cancel()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return out


def l3_size() -> str:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                if f.read().strip() == "3":
                    with open(os.path.join(index, "size")) as g:
                        return g.read().strip()
        except OSError:
            break
    return "unknown"


def git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "sjm", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def latency_tail(seconds: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(-(-pct * n // 100))  # nearest rank, 1-based
        beyond = n - rank
        if beyond >= 10:
            return 1000.0 * ordered[rank - 1], pct, beyond
    return None


def command(op: dict) -> str:
    """An op's argv without the seeded angles: the command and its sizes."""
    return " ".join(a for a in op["argv"] if not a.startswith(("--theta", "--phi")))


def run(args) -> tuple[dict, list[str]]:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sjm", "cli.py")):
        raise BenchError(f"no sjm sources under {src}; run from the root of a checkout")
    deadline = time.monotonic() + TIME_LIMIT_S
    # The build: byte-compile once so every set-up sample sees the same cache.
    if not compileall.compile_dir(os.path.join(src, "sjm"), quiet=1):
        raise BenchError("sjm sources do not compile")
    workdir = os.path.join(HERE, ".runs", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    procs = []
    try:
        setups = []
        for _ in range(SETUPS - 1):
            proc, setup_s = spawn(args, "setup", src, workdir, deadline)
            procs.append(proc)
            finish(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = spawn(args, "measure", src, workdir, deadline)
        procs.append(proc)
        setups.append(setup_s)
        child = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(workdir))

    ops = child["ops"]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    # End-to-end figures come from untraced ops only.
    measured = [op for op in ops if not op["traced"]]
    untraced = [op["seconds"] for op in measured]
    busy_seconds = sum(untraced)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(op["ok"] for op in measured) / busy_seconds, "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(untraced), "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    if args.trace:
        metrics = {k: tuple(v) for k, v in child["layers"].items()}
        # Per command, so a workload's fast and slow commands are never
        # compared with each other; every command has equal weight, as in a cycle.
        by_side: dict[tuple[bool, str], list[float]] = {}
        for op in ops:
            by_side.setdefault((op["traced"], command(op)), []).append(op["seconds"])
        deltas = [statistics.median(v) - statistics.median(by_side[(False, cmd)])
                  for (traced, cmd), v in by_side.items() if traced]
        metrics["trace.overhead_ms"] = (1000.0 * statistics.fmean(deltas), "ms")
    else:
        metrics = end_to_end

    env = {
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": child["blas_threads"],
        "l3_cache": l3_size(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
    }
    lines = [f"# env {json.dumps(env, sort_keys=True)}"]
    lines.append(
        f"# set-up samples {[round(s, 4) for s in setups]} s; measuring child: import "
        f"{child['import_s']:.4f} s, warm-up {' '.join(child['warmup_argv'])} {child['warmup_s']:.4f} s"
    )
    lines.append(f"# loop {child['loop_s']:.2f} s, {child['cycles']} cycles, {attempted} ops")
    for name, (value, unit) in end_to_end.items():
        lines.append(f"# {name} {value:.6g} {unit}")
    lines.append(f"# failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    tail = latency_tail(untraced)
    if tail is None:
        lines.append(f"# latency_tail_ms omitted: {len(untraced)} untraced ops leave no percentile "
                     "with 10 samples beyond it")
    else:
        value, pct, beyond = tail
        lines.append(f"# latency_tail_ms {value:.6g} ms (p{pct:g}, {beyond} samples beyond it, "
                     f"{len(untraced)} ops)")
    kinds: dict[str, list[float]] = {}
    for op in measured:
        kinds.setdefault(command(op), []).append(op["seconds"])
    for label, values in kinds.items():
        lines.append(f"# p50 {1000.0 * statistics.median(values):.4g} ms over {len(values)}: sjm {label}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            lines.append(f"# {name} {value:.6g} {unit}")
    for item in KNOWN_FAILING:
        lines.append(f"# known failing input, not run: sjm {' '.join(item['argv'])} "
                     f"({'/'.join(item['formats'])}): {item['reason']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Test-only: "tiny" shrinks every input so the benchmark's own tests run
    # in seconds.  Never used for a measurement.
    ap.add_argument("--size", choices=["full", "tiny"], default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
