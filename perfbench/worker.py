"""One round of one workload, in a fresh process.

`run.py` starts this script once per round, so every round begins with the
program's caches cold, as a new user process does. The worker imports the
program from the checkout's src/, makes the round's inputs, warms up, then
times each operation between two calibration kernels and checks its result.
It prints one JSON line with a record per operation.

    python3 perfbench/worker.py --workload arith --seed 1 --cpus 0,1 --spawned T --out DIR [--trace]

`--spawned` is the CLOCK_MONOTONIC time at which the parent started the
process; set-up time runs from it to the end of the warm-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from calibration import kernel, timed  # noqa: E402
from oracles import Oracles  # noqa: E402

VERIFY_SUITES = ("arith", "poset", "tiling", "paths", "fence")


def _op_record(name, wall, before, after, error, digest=None) -> list:
    return [name, wall, before, after, None if error is None else type(error).__name__, digest]


def _in_process_round(workload, seed, cpus, tracer):
    import fibcobweb as fc  # imported here: its import time is set-up time
    import workloads

    make_ops, warmup = workloads.IN_PROCESS[workload]
    orc = Oracles()
    ops = make_ops(fc, orc, seed)
    warmup(fc)
    for _ in range(20):
        kernel()
    ready = time.monotonic()
    if tracer is not None:
        tracer.install()
    records, faults = [], []
    for op in ops:
        if tracer is None:
            result, error, wall, before, after = timed(op.call, cpus)
        else:
            with tracer.span(op.name, "bench"):
                result, error, wall, before, after = timed(op.call, cpus)
        records.append(_op_record(op.name, wall, before, after, error))
        if error is None:
            fault = op.check(result)
            if fault is not None:
                faults.append(f"{op.name}: {fault}")
        del result
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ready, records, faults, rss_kib, {}


def _child_seconds(argv: list) -> float:
    from cliops import child_env

    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(ROOT), check=True, capture_output=True
    )
    return time.perf_counter() - start


def _cli_round(seed, out_dir, cpus, tracer):
    import cliops

    orc = Oracles()
    ops = cliops.cli_ops(orc, seed, out_dir)
    # Warm-up: one child, which also writes the bytecode cache in a fresh
    # checkout.
    _child_seconds(["-m", "fibcobweb", "--version"])
    for _ in range(20):
        kernel()
    ready = time.monotonic()
    extra = {}
    if tracer is not None:
        import fibcobweb.cli  # noqa: F401  (loaded so that install() wraps it)

        tracer.install()
        bare = [_child_seconds(["-c", "pass"]) for _ in range(3)]
        loaded = [_child_seconds(["-c", "import fibcobweb.cli"]) for _ in range(3)]
        extra["cli.interp_start.s"] = statistics.median(bare)
        extra["cli.import.s"] = statistics.median(loaded) - statistics.median(bare)
        extra["cli.stdout_bytes"] = 0
    records, faults = [], []
    for op in ops:
        proc, error, wall, before, after = timed(lambda: cliops.run_cli(ROOT, op), cpus)
        digest = None
        if error is None:
            digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
            fault = op.check(proc.stdout.decode("utf-8"))
            if fault is not None:
                faults.append(f"cobweb {' '.join(op.argv)}: {fault}")
            if tracer is not None:
                extra["cli.stdout_bytes"] += len(proc.stdout)
        records.append(_op_record(op.name, wall, before, after, error, digest))
        if tracer is not None:
            _main_in_process(op.argv)
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return ready, records, faults, rss_kib, extra


def _main_in_process(argv: list) -> None:
    import fibcobweb.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fibcobweb.cli.main(argv)
        except (Exception, SystemExit):  # the failing invocation raises here
            pass


def _verify_round():
    """Each `cobweb verify` suite once, untimed by kernels and untraced."""
    import fibcobweb.verify as verify

    ready = time.monotonic()
    extra, faults = {}, []
    for suite in VERIFY_SUITES:
        start = time.perf_counter()
        results = verify.run_suite(suite)
        extra[f"verify.{suite}.s"] = time.perf_counter() - start
        faults += [f"verify {suite}: {r.name} {r.detail}" for r in results if not r.passed]
    return ready, [], faults, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpus", required=True, help="comma-separated CPUs to choose from")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tag", default="round")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    cpus = [int(c) for c in args.cpus.split(",")]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    if args.workload == "cli":
        ready, records, faults, rss_kib, extra = _cli_round(args.seed, args.out, cpus, tracer)
    elif args.workload == "verify":
        ready, records, faults, rss_kib, extra = _verify_round()
    else:
        ready, records, faults, rss_kib, extra = _in_process_round(args.workload, args.seed, cpus, tracer)

    layers = {}
    if tracer is not None:
        from tracing import layer_metrics

        layers = layer_metrics(tracer.spans)
        tracer.dump(os.path.join(args.out, f"spans-{args.workload}-{args.tag}.json"))
    layers.update(extra)
    print(
        json.dumps(
            {
                "setup_s": ready - args.spawned,
                "ops": records,
                "faults": faults,
                "rss_kib": rss_kib,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
