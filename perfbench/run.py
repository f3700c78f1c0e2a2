"""fibcobweb benchmark: closed-loop workloads timed against a calibration kernel.

    python3 perfbench/run.py --workload arith --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # the four in turn

Runs from the root of a checkout. It runs whole rounds of the workload, each
in a fresh worker process (`worker.py`), one at a time, until `--seconds`
have passed and at least MIN_OPS operations were attempted. Before each
round, and before each operation, the process moves to the quietest of the
CPUs it may use, measured by the calibration kernel; an operation, its two
kernels and any child it starts run on that one CPU. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with `--trace 0` and the per-layer metrics
with `--trace 1`. Round records, span files and results go to .perfbench-out/.

With `--trace 1` the run repeats cycles, each an untraced round of the named
workload followed by a traced round of every workload, and then times each
`cobweb verify` suite once. `attempted` and `failed` count the named
workload's rounds only; every round's outputs are checked.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibration import pin_quietest_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("arith", "poset", "tiling", "cli")
MIN_OPS = 100
WORKER_TIMEOUT_S = 150
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "wall_cal": "cal",
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "seqcore.fibonomial.s": "s",
    "seqcore.fibonomial_rec.s": "s",
    "seqcore.q_binomial.s": "s",
    "seqcore.result_bits": "bit",
    "seqcore.fibonomial.calls": "count",
    "weighted.coeff.s": "s",
    "gvpaths.fibonomial_via_paths.s": "s",
    "gvpaths.determinants": "count",
    "fence.count_ideals.s": "s",
    "cobweb.build_cold.s": "s",
    "cobweb.query_warm.s": "s",
    "cobweb.dense_entries": "count",
    "cobweb.enumerate_max_chains.s": "s",
    "tiling.find_tiling.found.s": "s",
    "tiling.find_tiling.nocover.s": "s",
    "tiling.enumerate_copies.s": "s",
    "tiling.verify_tiling.s": "s",
    "tiling.candidates": "count",
    "tiling.copy_yield": "ratio",
    "exactcover.solve_first.s": "s",
    "exactcover.count_covers.s": "s",
    "cli.interp_start.s": "s",
    "cli.import.s": "s",
    "cli.main.s": "s",
    "cli.stdout_bytes": "byte",
    "verify.arith.s": "s",
    "verify.poset.s": "s",
    "verify.tiling.s": "s",
    "verify.paths.s": "s",
    "verify.fence.s": "s",
    "bench.cal_kernel_ms": "ms",
    "bench.trace_overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_round(workload: str, seed: int, trace: bool, tag: str) -> dict:
    pin_quietest_cpu(CPUS)
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", OUT,
        "--tag", tag,
        "--cpus", ",".join(map(str, CPUS)),
        "--spawned", repr(time.monotonic()),
    ]
    if trace:
        argv.append("--trace")
    # Its own process group, so a worker that overruns is stopped together
    # with any child it started.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(out.decode("utf-8").splitlines()[-1])


def calibrated(record: list) -> float:
    _, wall, before, after, _, _ = record
    return wall / ((before + after) / 2)


def round_cal(rnd: dict) -> float:
    return sum(calibrated(rec) for rec in rnd["ops"])


def check_rounds(rounds: list) -> list:
    """Faults found in the rounds, plus any output that differs between
    rounds of the same invocation (the inputs repeat every round)."""
    faults = [f for rnd in rounds for f in rnd["faults"]]
    first = rounds[0]["ops"]
    for rnd in rounds[1:]:
        if [r[0] for r in rnd["ops"]] != [r[0] for r in first]:
            faults.append("rounds ran different operations")
            continue
        for a, b in zip(first, rnd["ops"]):
            if a[5] is not None and b[5] is not None and a[5] != b[5]:
                faults.append(f"{a[0]}: output differs between identical invocations")
    return faults


def end_to_end(rounds: list) -> dict:
    """The end-to-end metrics of a run of whole rounds.

    wall_s sums, over the round's operations, each operation's fastest
    repeat: contention on a shared host only ever adds time, so the fastest
    repeat is the least disturbed reading. wall_cal sums each operation's
    median calibrated time over the repeats.
    """
    per_op = list(zip(*(rnd["ops"] for rnd in rounds)))
    cal = [calibrated(rec) for rnd in rounds for rec in rnd["ops"]]
    return {
        "wall_s": sum(min(rec[1] for rec in repeats) for repeats in per_op),
        "wall_cal": sum(statistics.median(calibrated(rec) for rec in repeats) for repeats in per_op),
        "op_p50_cal": statistics.median(cal),
        "op_p90_cal": statistics.quantiles(cal, n=10)[8],
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_kib"] for r in rounds) / 1024,
    }


def untraced_run(workload: str, seed: int, seconds: float):
    rounds = []
    start = time.monotonic()
    while (
        not rounds
        or time.monotonic() - start < seconds
        or sum(len(r["ops"]) for r in rounds) < MIN_OPS
    ):
        rounds.append(run_round(workload, seed, False, f"s{seed}-r{len(rounds)}"))
    return rounds, end_to_end(rounds), check_rounds(rounds)


def traced_run(workload: str, seed: int, seconds: float):
    own, cycles, faults = [], [], []
    start = time.monotonic()
    while not cycles or time.monotonic() - start < seconds:
        c = len(cycles)
        untraced = run_round(workload, seed, False, f"s{seed}-c{c}-plain")
        traced = {w: run_round(w, seed, True, f"s{seed}-c{c}") for w in WORKLOADS}
        own += [untraced, traced[workload]]
        cycles.append((untraced, traced))
        faults += [f for w, rnd in traced.items() if w != workload for f in rnd["faults"]]
    verify = run_round("verify", seed, False, f"s{seed}-verify")
    faults += verify["faults"] + check_rounds(own)

    per_cycle = []
    for untraced, traced in cycles:
        layers = {}
        for rnd in traced.values():
            for key, value in rnd["layers"].items():
                layers[key] = layers.get(key, 0) + value
        candidates = layers.get("tiling.candidates", 0)
        layers["tiling.copy_yield"] = layers.pop("tiling.copies_found", 0) / candidates if candidates else 0.0
        kernels = [k for rnd in traced.values() for rec in rnd["ops"] for k in rec[2:4]]
        layers["bench.cal_kernel_ms"] = statistics.median(kernels) * 1e3
        layers["bench.trace_overhead"] = round_cal(traced[workload]) / round_cal(untraced)
        per_cycle.append(layers)
    metrics = {
        key: statistics.median(layers.get(key, 0) for layers in per_cycle)
        for key in PER_LAYER_UNITS
    }
    metrics.update(verify["layers"])
    return own, metrics, faults


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints its metrics and returns its result."""
    if trace:
        rounds, values, faults = traced_run(workload, seed, seconds)
        units = PER_LAYER_UNITS
    else:
        rounds, values, faults = untraced_run(workload, seed, seconds)
        units = END_TO_END_UNITS
    for fault in faults:
        print(f"FAULT {workload}: {fault}", file=sys.stderr)
    result = {
        "correct": not faults,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(1 for r in rounds for rec in r["ops"] if rec[4] is not None),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{workload}-s{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "values": values, "rounds": rounds}, fh)
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not trace:
        # Raw wall time is what a user waits for, but on a shared host it
        # spreads past any usable bound between runs, so it is shown here
        # and kept in the result file, not gated.
        print(f"{workload} wall_s = {values['wall_s']:.6g} s (raw, not gated)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace and len(names) > 1:
        parser.error("--trace 1 takes one workload; its run traces all of them")

    if not os.path.isfile(os.path.join(ROOT, "src", "fibcobweb", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'fibcobweb')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        results = {w: measure(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
