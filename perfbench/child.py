"""One workload in one fresh interpreter: set-up, closed loop, then checks.

Protocol with run.py: after `sjm.cli` is imported and the warm-up op has
run, the child writes `ready` on stdout; the parent's clock from spawn to
that line is one set-up sample.  In `--mode setup` the child then exits.  In
`--mode measure` it runs whole cycles of in-process `sjm.cli.main(argv)`
calls, one at a time, until `--seconds` have passed, then reads its own
peak RSS, and only then checks every output against the oracle (so the
oracle's memory never counts).  Its last stdout line is a JSON result.

Each op's stdout goes to a file in `--workdir`, as `sjm ... > file` would
send it, and the write and flush are part of the op's time: a CLI user waits
for them, and a streaming emitter must not be charged for a copy the
benchmark made.
"""
from __future__ import annotations

import argparse
import array
import json
import os
import resource
import sys
import time

from workloads import OpStream


def run_op(cli, op, sink) -> tuple[object, float, str | None]:
    """Run one op with stdout sent to `sink`; returns (exit code, seconds, error)."""
    saved = sys.stdout
    error = None
    sys.stdout = sink
    start = time.perf_counter()
    try:
        code = cli.main(op.argv)
        sink.flush()
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdout = saved
    return code, seconds, error


def blas_threads() -> str:
    """Thread count the bundled OpenBLAS reports, else the environment's setting."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} (openblas_get_num_threads)"
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    stream = OpStream(args.workload, args.seed, args.size)
    t0 = time.perf_counter()
    import sjm.cli as cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"sjm imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 3
    with open(os.path.join(args.workdir, f"warmup-{os.getpid()}.out"), "w", encoding="utf-8") as sink:
        code, warmup_s, error = run_op(cli, stream.warmup, sink)
    if code != 0:
        print(f"warm-up op {stream.warmup.argv} failed: exit {code} {error or ''}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import sjm
        from tracing import Tracer

        tracer = Tracer()
    # Per-op records live in flat arrays: the child's peak RSS is a metric,
    # so the harness keeps no per-op objects.  The oracle replays the seeded
    # op stream instead of storing the ops.
    codes: list = []
    seconds = array.array("d")
    offsets = array.array("q")
    errors: dict[int, str] = {}
    spill_path = os.path.join(args.workdir, "outputs.txt")
    with open(spill_path, "w", encoding="utf-8", newline="") as spill:
        loop_start = time.perf_counter()
        cycles = 0
        while True:
            # A traced run alternates untraced and traced cycles, so both
            # sides of the overhead figure see the same inputs and machine.
            traced = tracer is not None and cycles % 2 == 1
            if traced:
                tracer.install(sjm)
            try:
                for op in stream.next_cycle():
                    offsets.append(spill.buffer.tell())
                    code, op_s, error = run_op(cli, op, spill)
                    spill.flush()
                    if traced:
                        tracer.record_op(op_s, spill.buffer.tell() - offsets[-1])
                    if error is not None:
                        errors[len(codes)] = error
                    codes.append(code)
                    seconds.append(op_s)
            finally:
                if traced:
                    tracer.uninstall()
            cycles += 1
            done = time.perf_counter() - loop_start >= args.seconds
            if done and (tracer is None or cycles % 2 == 0):
                break
        loop_s = time.perf_counter() - loop_start
        offsets.append(spill.buffer.tell())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np

    import oracle

    rng = np.random.default_rng(args.seed)
    replay = OpStream(args.workload, args.seed, args.size)
    ops = []
    with open(spill_path, "rb") as spill:
        for cycle in range(cycles):
            for op in replay.next_cycle():
                i = len(ops)
                if i not in errors:
                    spill.seek(offsets[i])
                    text = spill.read(offsets[i + 1] - offsets[i]).decode("utf-8")
                    try:
                        oracle.check(op, codes[i], text, rng)
                    except (oracle.OracleError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                        errors[i] = f"{type(exc).__name__}: {exc}"
                    del text
                if i in errors:
                    print(f"failed op {op.argv}: {errors[i]}", file=sys.stderr)
                ops.append({"kind": op.kind, "argv": op.argv, "seconds": seconds[i],
                            "traced": tracer is not None and cycle % 2 == 1, "ok": i not in errors})
    os.remove(spill_path)

    result = {
        "import_s": import_s,
        "warmup_s": warmup_s,
        "warmup_argv": stream.warmup.argv,
        "loop_s": loop_s,
        "cycles": cycles,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
