"""One benchmark pass in a fresh interpreter, so library caches start cold.

Reads a job from stdin: ``{"calls": [[group, argv], ...], "trace": bool,
"span_path": str | null, "cpu": int}``, or ``{"probe": true, "cpu": int}`` to
measure set-up only; the process pins itself to ``cpu`` when one is given.
Imports ``cywps`` from the checkout's ``src``, builds the CLI parser, then
calls ``cywps.cli.main`` once per argv, one call after the previous returns.
Writes one JSON object to stdout with the ready time, the time spent reading
the job, each call's latency, exit code and captured output, and the peak
resident memory of this process.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    t_read0 = time.monotonic()
    job = json.loads(sys.stdin.read())
    t_read1 = time.monotonic()
    if "cpu" in job:
        os.sched_setaffinity(0, {job["cpu"]})
    sys.path.insert(0, SRC)
    import cywps.cli

    cywps.cli.build_parser()
    t_ready = time.monotonic()
    if not os.path.abspath(cywps.cli.__file__).startswith(SRC + os.sep):
        print(f"cywps imported from {cywps.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"t_ready": t_ready, "read_s": t_read1 - t_read0}
    if job.get("probe"):
        print(json.dumps(result))
        return 0

    recorder = None
    if job["trace"]:
        import tracer  # beside this script, so on sys.path already

        recorder = tracer.Recorder()
        recorder.install()

    calls = []
    t_pass0 = time.perf_counter()
    for i, (_, argv) in enumerate(job["calls"]):
        if recorder is not None:
            recorder.input_id = i
        out = io.StringIO()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cywps.cli.main(argv)
            error = None
        except Exception as exc:  # a crash is a failed call, not a crashed pass
            code = None
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        calls.append(
            {"latency_s": latency, "code": code, "stdout": out.getvalue(),
             "stderr": err.getvalue()[-2000:], "error": error}
        )
    result["wall_s"] = time.perf_counter() - t_pass0
    result["calls"] = calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        groups = [group for group, _ in job["calls"]]
        result["layers"], result["by_group"] = tracer.summarize(recorder.spans, groups)
        if job.get("span_path"):
            recorder.dump(job["span_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
