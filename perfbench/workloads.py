"""Workload inputs and the correctness gate.

Every pass is a list of ``cywps`` CLI argv lists, generated from the workload
seed and the pass index before the pass starts.  The gate compares each
call's output with values that do not come from the code being measured: TSV
files and an IP pool pinned in ``data/``, the showcase values published with
the package, and an independent subset-sum oracle written here.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from fractions import Fraction

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

CENSUS = {
    # workload: (filter, bound, pinned record count)
    "census-d3-transverse": ("transverse", 200, 95),
    "census-d3-ip": ("ip", 30, 76),
}

# showcase vectors and the values the paper reproduction publishes for them
SHOWCASE = {
    "1,2,3,4,5": {"chi_orb_formula": "-126", "chi_str_mirror": "126"},
    "1,1,1,1,1": {"chi_orb_formula": "-200", "chi_str_mirror": "200"},
    "1,1,6,14,21": {"chi_orb_formula": "-506", "chi_str_mirror": "506",
                    "notes": ("-504", "not a mirror")},
    "1,1,2,4,5": {"chi_orb_formula": "-1032/5", "chi_str_mirror": "1032/5",
                  "integral": False},
}

IP_SAMPLE_D4 = 16  # pool vectors of dimension 4 per pass
IP_SAMPLE_D3 = 8  # pool vectors of dimension 3 per pass
LARGE_DEGREE_LEVELS = 5  # degrees 10^(4 + k/4), k = 0..4, one vector each per pass

# workload -> its input groups.  The IP census runs in a process of its own:
# the IP pool shares vectors with it, so verify calls in the same process would
# hit the IP-test cache the census filled.
WORKLOADS = {
    "census-d3-transverse": ("census-d3-transverse",),
    "ip-verify": ("census-d3-ip", "verify-ip-sample", "verify-large-degree"),
}


def census_reference(workload: str) -> str:
    flt, bound, _ = CENSUS[workload]
    with open(os.path.join(DATA, f"census_d3_{flt}_{bound}.tsv"), encoding="ascii") as fh:
        return fh.read()


@functools.cache
def load_ip_pool() -> dict[str, str]:
    """Pinned IP weight vectors -> chi_orb, as written by make_data.py."""
    with open(os.path.join(DATA, "ip_pool.json"), encoding="ascii") as fh:
        return json.load(fh)


def _well_formed(ws: tuple[int, ...]) -> bool:
    return all(math.gcd(*(ws[:i] + ws[i + 1:])) == 1 for i in range(len(ws)))


def large_degree_vectors(rng: random.Random, levels: int) -> list[tuple[int, ...]]:
    """One well-formed d = 4 vector (1, 1, b, c, big) per degree level
    10^(4 + k/(levels-1)), with b, c seeded in 1..40.

    The big weight is above half the degree, so the vector lacks the
    IP-property and ``verify`` never reaches polytope code.  The two unit
    weights make every degree reachable without any one variable, so
    ``has_ip_property`` always runs its knapsack instead of stopping early on
    some vectors.  The degree is jittered by up to 1 % so that no vector
    repeats.
    """
    out = []
    for k in range(levels):
        target = 10 ** (4 + k / max(1, levels - 1))
        while True:
            degree = round(target * rng.uniform(0.99, 1.01))
            small = (1, 1, *sorted(rng.randint(1, 40) for _ in range(2)))
            ws = (*small, degree - sum(small))
            if _well_formed(ws) and ws not in out:
                out.append(ws)
                break
    return out


def group_inputs(group: str, rng: random.Random, scale: float) -> list[list[str]]:
    """The CLI argv lists of one input group; ``scale`` < 1 shrinks verify groups."""
    if group in CENSUS:
        flt, bound, _ = CENSUS[group]
        return [["census", "--dim", "3", "--max-degree", str(bound),
                 "--filter", flt, "--jobs", "1"]]
    if group == "verify-ip-sample":
        pool = sorted(load_ip_pool())
        d4 = [v for v in pool if v.count(",") == 4]
        d3 = [v for v in pool if v.count(",") == 3]
        vectors = (
            rng.sample(d4, max(1, round(IP_SAMPLE_D4 * scale)))
            + rng.sample(d3, max(1, round(IP_SAMPLE_D3 * scale)))
            + list(SHOWCASE)
        )
    elif group == "verify-large-degree":
        levels = max(2, round(LARGE_DEGREE_LEVELS * scale))
        vectors = [",".join(map(str, ws)) for ws in large_degree_vectors(rng, levels)]
    else:
        raise ValueError(f"unknown input group {group!r}")
    return [["verify", v] for v in vectors]


def pass_processes(workload: str, seed: int,
                   scale: float = 1.0) -> list[list[tuple[str, list[str]]]]:
    """The inputs of every pass of a run: per fresh process, its (group, argv)
    calls in call order.

    No input repeats within a process, so every call meets cold caches."""
    rng = random.Random(f"{workload}:{seed}")
    processes = []
    verify_calls = []
    for group in WORKLOADS[workload]:
        calls = [(group, argv) for argv in group_inputs(group, rng, scale)]
        if group in CENSUS:
            processes.append(calls)
        else:
            verify_calls += calls
    if verify_calls:
        rng.shuffle(verify_calls)
        processes.append(verify_calls)
    return processes


def subset_sum_oracle(ws: tuple[int, ...]) -> Fraction:
    """chi_orb = (1/w) sum_{|J| <= d-1} (-1)^|J| n_J^2 prod_{j in J} w/w_j,
    n_J = gcd(w, w_j : j in J); written independently of the package."""
    deg = sum(ws)
    d = len(ws) - 1
    total = Fraction(0)
    for mask in range(1 << (d + 1)):
        members = [ws[j] for j in range(d + 1) if mask >> j & 1]
        if len(members) > d - 1:
            continue
        n_j = math.gcd(deg, *members)
        term = Fraction(n_j * n_j)
        for wj in members:
            term *= Fraction(deg, wj)
        total += -term if len(members) % 2 else term
    return total / deg


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def check_call(argv: list[str], call: dict, overrides: dict | None = None) -> str | None:
    """None if the call's output is correct, else the reason it is not.

    ``overrides`` maps a subcommand to the expected values to use instead
    (the self-test uses it to show that a wrong expectation is caught)."""
    expect = (overrides or {}).get(argv[0])
    if call.get("error"):
        return call["error"]
    if call["code"] != 0:
        return f"exit code {call['code']}: {call['stderr'].strip()[-200:]}"
    if argv[0] == "census":
        if expect is None:
            workload = next(
                w for w, (flt, bound, _) in CENSUS.items()
                if argv[argv.index("--filter") + 1] == flt
                and argv[argv.index("--max-degree") + 1] == str(bound)
            )
            expect = {"tsv": census_reference(workload), "count": CENSUS[workload][2]}
        got = call["stdout"]
        records = got.count("\n") - 1
        if records != expect["count"]:
            return f"census gave {records} records, pinned {expect['count']}"
        if got != expect["tsv"]:
            return "census TSV differs from the pinned reference"
        return None

    try:
        report = json.loads(call["stdout"])
    except json.JSONDecodeError:
        return "verify output is not JSON"
    text = argv[1]
    ws = tuple(int(x) for x in text.split(","))
    sign = 1 if (len(ws) - 1) % 2 else -1
    if report.get("methods_agree") is not True:
        return f"methods disagree on {text}: {report.get('notes')}"
    chi_orb = Fraction(report["chi_orb_formula"])
    if expect is None:
        if text in SHOWCASE:
            expect = SHOWCASE[text]
        elif len(ws) == 5 and 2 * max(ws) > sum(ws):
            expect = {"chi_orb_formula": _fmt(subset_sum_oracle(ws)), "ip": False,
                      "chi_str_mirror": None}
        else:
            expect = {"chi_orb_formula": load_ip_pool()[text], "ip": True}
    for key, want in expect.items():
        if key == "notes":
            joined = " ".join(report["notes"])
            if not all(part in joined for part in want):
                return f"{text}: notes {report['notes']} lack {want}"
        elif report.get(key) != want:
            return f"{text}: {key} = {report.get(key)!r}, expected {want!r}"
    if report["ip"]:
        if report["chi_str_mirror"] is None or Fraction(report["chi_str_mirror"]) != sign * chi_orb:
            return f"{text}: chi_str_mirror != (-1)^(d-1) * chi_orb"
    return None
