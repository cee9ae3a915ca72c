"""Rebuild the pinned reference data in ``data/``.

Run once, at the commit whose outputs become the reference:

    python3 perfbench/make_data.py

It writes the census TSV of each census workload exactly as ``cywps census``
prints it, and ``ip_pool.json``: every d = 3 and every d = 4 transverse (hence
IP) weight vector of degree <= 120 except the showcase vectors, mapped to its
orbifold Euler number.  The benchmark never calls this script.
"""

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cywps.cli import main as cli_main  # noqa: E402
from cywps.exact import format_rational  # noqa: E402
from cywps.quasismooth import census  # noqa: E402

from workloads import CENSUS, DATA, SHOWCASE, group_inputs  # noqa: E402

POOL_D4_MAX_DEGREE = 120


def main() -> int:
    os.makedirs(DATA, exist_ok=True)
    for workload, (flt, bound, _) in CENSUS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(group_inputs(workload, random.Random(0), 1.0)[0])
        assert code == 0
        with open(os.path.join(DATA, f"census_d3_{flt}_{bound}.tsv"), "w", encoding="ascii") as fh:
            fh.write(out.getvalue())
        print(workload, out.getvalue().count("\n") - 1, "records")
    pool = {}
    for dim, bound in ((3, 100), (4, POOL_D4_MAX_DEGREE)):
        for rec in census(dim, bound, "transverse", 1):
            key = ",".join(map(str, rec.weights))
            if key not in SHOWCASE:
                pool[key] = format_rational(rec.chi_orb_formula)
    with open(os.path.join(DATA, "ip_pool.json"), "w", encoding="ascii") as fh:
        json.dump(pool, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("ip pool", len(pool), "vectors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
