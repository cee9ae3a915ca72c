"""End-to-end and per-layer benchmark of cywps.

    python3 perfbench/run.py --workload ip-verify --seed 1 --seconds 60 --trace 0

Runs one workload as a closed loop with one client per CPU (at most two),
each pinned to its CPU: a client's passes run one after another, each in
fresh interpreters (``child.py``) so that the library's caches start cold, as
they do for a user's ``cywps`` process; inside a pass each ``cywps.cli.main``
call starts after the previous one returned.  A client stops before a pass
that would overrun ``--seconds``; at least two passes run in all.  Every
output is checked against pinned or independently computed values
(``workloads.py``).

Every pass of a run replays the same inputs, drawn from ``--seed``.
``--trace 0`` prints the end-to-end metrics: the mean pass wall time, the
median set-up time, and latency percentiles over the inputs of each input's
mean latency.  ``--trace 1`` runs each pass twice, untraced then traced, and
prints the per-layer metrics (medians over the traced passes) and the
tracing overhead (mean of traced minus untraced pass wall time).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record of the
run, with its metadata, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
ENTRY_POINTS = ("cli.main", "euler.mirror_test", "quasismooth.census")
CLIENTS = 2  # closed-loop clients, each pinned to a CPU of its own
PROBES = 3  # set-up-only processes per client, besides the set-up of every pass
MIN_PASSES = 2
CHILD_TIMEOUT_S = 100  # keeps a run with a hung pass within 180 s at --seconds 60


class ChildError(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run child.py on ``job``; add ``setup_s``, fresh process to first call ready.

    The child's time reading the job (the benchmark's own input) is excluded."""
    payload = json.dumps(job).encode()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD], input=payload, capture_output=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise ChildError(f"child exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t0 - result["read_s"]
    return result


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


class Pass:
    """What one pass measured: its processes' results summed or merged."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.setup_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.latencies: list[float] = []
        self.records = 0
        self.group_wall_s: dict[str, float] = defaultdict(float)
        self.layers: dict[str, float] = defaultdict(float)
        self.by_group: dict[tuple[str, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))


def run_pass(processes, traced: bool, cpu: int, span_stem: str, overrides: dict | None,
             failures: list[str]) -> Pass | None:
    """Run each process of a pass in turn on ``cpu`` and check every output.

    Appends the reason of every failed call to ``failures``; returns None if a
    process died, since its pass then measured nothing whole."""
    p = Pass()
    for k, calls in enumerate(processes):
        job = {"calls": calls, "trace": traced, "cpu": cpu,
               "span_path": f"{span_stem}-{k}.jsonl" if traced else None}
        try:
            result = spawn(job)
        except ChildError as exc:
            failures += [str(exc)] * sum(len(c) for c in processes[k:])
            return None
        p.setup_s.append(result["setup_s"])
        p.wall_s += result["wall_s"]
        p.peak_rss_mb = max(p.peak_rss_mb, result["peak_rss_mb"])
        for (group, argv), call in zip(calls, result["calls"]):
            reason = workloads.check_call(argv, call, overrides)
            if reason:
                failures.append(f"{' '.join(argv)}: {reason}")
            p.latencies.append(call["latency_s"])
            p.group_wall_s[group] += call["latency_s"]
            if argv[0] == "census":
                p.records += call["stdout"].count("\n") - 1
        if traced:
            for name, value in result["layers"].items():
                p.layers[name] += value
            for group, times in result["by_group"].items():
                for kind, names in times.items():
                    for name, value in names.items():
                        p.by_group[group, kind][name] += value
    if traced:
        candidates = p.layers["quasismooth.census.candidates"]
        p.layers["quasismooth.census.useful_ratio"] = p.records / candidates if candidates else 0.0
    return p


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, overrides: dict | None = None) -> dict:
    """Measure one workload; return the run's record, result line included."""
    os.makedirs(OUT, exist_ok=True)
    t_start = time.monotonic()
    # warm-up, not counted: writes cywps bytecode once, unless the
    # environment forbids it (PYTHONDONTWRITEBYTECODE, recorded below)
    spawn({"probe": True})
    cpus = sorted(os.sched_getaffinity(0))[:CLIENTS]
    min_rounds = math.ceil(MIN_PASSES / len(cpus))
    processes = workloads.pass_processes(workload, seed, scale)
    lock = threading.Lock()
    numbers = itertools.count()
    setups: list[float] = []
    failures: list[str] = []
    # a traced run pairs each untraced pass with a traced one on the same inputs
    passes: dict[bool, dict[int, Pass]] = {False: {}, True: {}}
    counts = {"attempted": 0, "rounds": 0}

    def client(cpu: int) -> None:
        probes = [spawn({"probe": True, "cpu": cpu})["setup_s"] for _ in range(PROBES)]
        stem = os.path.join(OUT, f"spans-{workload}-cpu{cpu}")
        longest = 0.0
        rounds = 0
        while rounds < min_rounds or time.monotonic() - t_start + longest <= seconds:
            with lock:
                number = next(numbers)
            t_round = time.monotonic()
            for traced in (False, True) if trace else (False,):
                bad: list[str] = []
                p = run_pass(processes, traced, cpu, stem, overrides, bad)
                with lock:
                    counts["attempted"] += sum(len(calls) for calls in processes)
                    failures.extend(bad)
                    if p is not None:
                        passes[traced][number] = p
                        setups.extend(p.setup_s)
            longest = max(longest, time.monotonic() - t_round)
            rounds += 1
        with lock:
            setups.extend(probes)
            counts["rounds"] += rounds

    with ThreadPoolExecutor(len(cpus)) as pool:
        for future in [pool.submit(client, cpu) for cpu in cpus]:
            future.result()
    attempted = counts["attempted"]
    inputs_per_pass = sum(len(calls) for calls in processes)

    # Pass timings are means over the run's passes.  Host contention on a
    # shared VM slows each CPU for seconds to minutes at a time; a mean moves in
    # proportion to the share of the run spent contended, where a median or
    # a minimum jumps between the contended and the free level.  All passes
    # replay the same inputs, so each input's latency is its mean over the
    # passes, and the percentiles are taken over the inputs.
    plain = list(passes[False].values())
    per_input = [statistics.fmean(lat) for lat in zip(*(p.latencies for p in plain))]
    metrics: dict[str, dict] = {}
    if not trace and plain:
        values = {
            "wall_s": statistics.fmean(p.wall_s for p in plain),
            "call_p50_ms": 1000 * statistics.median(per_input),
            "call_p90_ms": 1000 * nearest_rank(per_input, 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    pairs = [(t, passes[False][n]) for n, t in passes[True].items() if n in passes[False]]
    if trace and pairs:
        for name, unit, _ in tracer.layer_metric_specs():
            if name == "trace_overhead_s":
                value = statistics.fmean(t.wall_s - u.wall_s for t, u in pairs)
            else:
                value = statistics.median(t.layers[name] for t, _ in pairs)
            metrics[name] = {"value": value, "unit": unit}

    # where each input group's traced time went: the largest self times, and
    # the largest inclusive times below the entry points that enclose everything
    dominant = {}
    for group in workloads.WORKLOADS[workload] if pairs else ():
        total = sum(t.group_wall_s[group] for t, _ in pairs)
        for kind in ("self_s", "time_s"):
            sums: dict[str, float] = defaultdict(float)
            for t, _ in pairs:
                for name, value in t.by_group[group, kind].items():
                    if kind == "self_s" or name not in ENTRY_POINTS:
                        sums[name] += value
            top = sorted(sums.items(), key=lambda kv: -kv[1])[:4]
            dominant[f"{group} {kind}"] = [(name, round(value / total, 3)) for name, value in top if total]

    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "cywps_jobs_env": os.environ.get("CYWPS_JOBS"),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "clients": len(cpus),
        "rounds": counts["rounds"],
        "inputs_per_pass": inputs_per_pass,
        "records_per_pass": plain[0].records if plain else None,
        "fail_share": len(failures) / attempted,
        "call_samples": len(per_input),
        "samples_beyond_p90": len(per_input) - math.ceil(0.9 * len(per_input)),
        "repetitions": len(plain),
        "pass_wall_s": [p.wall_s for p in plain],
        "input_mean_latency_s": per_input,
        "group_wall_s": {g: [p.group_wall_s[g] for p in plain] for g in workloads.WORKLOADS[workload]},
        "setup_s": setups,
        "share_by_group": dominant,
        "failures": failures[:50],
        "result": line,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the verify passes (the self-test uses 0.1)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cywps", "cli.py")):
        print(f"no cywps sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except ChildError as exc:  # the set-up probes failed: nothing was measured
        print(f"cannot start cywps: {exc}", file=sys.stderr)
        return 2

    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    line = record["result"]
    for name, metric in line["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_share':45s} {record['fail_share']:.6g} ratio")
    for name in ("repetitions", "call_samples", "samples_beyond_p90"):
        print(f"{name:45s} {record[name]} count")
    for key, top in record["share_by_group"].items():
        print(f"{key}: " + ", ".join(f"{name} {share:.0%}" for name, share in top))
    for reason in record["failures"][:5]:
        print("FAIL", reason)
    meta = {k: record[k] for k in ("workload", "seed", "python", "nproc", "git_sha", "cywps_jobs_env",
                                   "clients", "rounds", "inputs_per_pass", "records_per_pass")}
    print(json.dumps({"meta": meta}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
