"""Self-test of the benchmark at tiny sizes (about a minute on two cores):

    python3 perfbench/selftest.py

1. Every workload prints every metric of ``BENCHMARK.json`` with its unit,
   untraced and traced.
2. A deliberately wrong expected value makes ``fail_share`` positive.
3. A tiny census gives byte-identical TSV with one worker and with two
   (a correctness check; nothing is timed).

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def check_metrics_print(spec: dict) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0", "--trace", str(trace), "--scale", "0.1"],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs judged wrong")
            printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
            if "fail_share" not in printed:
                problems.append(f"{workload} trace={trace}: fail_share not printed")
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit or printed.get(name) != unit:
                    problems.append(f"{workload} trace={trace}: {name} missing or not in {unit}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload} trace={trace}: undeclared metrics {sorted(extra)}")
    return problems


def check_wrong_expectation() -> list[str]:
    record = run.run("ip-verify", 0, 0, False, scale=0.1,
                     overrides={"verify": {"chi_orb_formula": "0"}})
    if record["fail_share"] > 0 and not record["result"]["correct"]:
        return []
    return ["a wrong expected chi_orb was not counted as a failure"]


def check_census_jobs() -> list[str]:
    outputs = []
    for jobs in ("1", "2"):
        argv = ["census", "--dim", "3", "--max-degree", "24", "--filter", "transverse",
                "--jobs", jobs]
        call = run.spawn({"calls": [["selftest", argv]], "trace": False})["calls"][0]
        if call["code"] != 0:
            return [f"census --jobs {jobs} exited {call['code']}"]
        outputs.append(call["stdout"])
    if outputs[0] != outputs[1] or outputs[0].count("\n") < 2:
        return ["census TSV differs between --jobs 1 and --jobs 2"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    problems = check_census_jobs() + check_wrong_expectation() + check_metrics_print(spec)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
