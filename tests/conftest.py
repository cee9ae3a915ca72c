import json
import os
import random

import pytest
from hypothesis import strategies as st

from cywps.quasismooth import has_ip_property, iter_weight_partitions
from cywps.wps import WeightVector, weight_flags

IP_POOL_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "ip_pool.json")
NONTRANSVERSE_IP_PATH = os.path.join(os.path.dirname(__file__), "data", "nontransverse_ip.json")


def ip_pool() -> dict[str, str]:
    """The pinned IP pool of the benchmark, read only: every d = 3 and every
    d = 4 transverse weight vector of degree <= 120 but the showcase ones,
    mapped to its orbifold Euler number."""
    with open(IP_POOL_PATH, encoding="ascii") as fh:
        return json.load(fh)


def nontransverse_ip() -> dict[str, str]:
    """Every well-formed IP weight vector that is not transverse, with d = 4 and
    weights <= 9 or d = 5 and weights <= 6, mapped to its orbifold Euler number."""
    with open(NONTRANSVERSE_IP_PATH, encoding="ascii") as fh:
        return json.load(fh)


def small_ip_vectors(dims, max_weight=4):
    """Well-formed IP weight vectors, unsorted, with d in ``dims`` and every
    weight at most ``max_weight``."""
    return (
        st.sampled_from(dims)
        .flatmap(lambda d: st.lists(st.integers(1, max_weight), min_size=d + 1, max_size=d + 1))
        .map(lambda ws: WeightVector(tuple(ws)))
        .filter(lambda w: weight_flags(w)[0] and has_ip_property(w))
    )


def well_formed_vectors(dim, max_degree):
    """All sorted well-formed weight vectors with the given dimension."""
    for degree in range(dim + 1, max_degree + 1):
        for ws in iter_weight_partitions(dim, degree):
            w = WeightVector(ws)
            if weight_flags(w)[0]:
                yield w


def random_well_formed(rng: random.Random, dim: int, max_degree: int) -> WeightVector:
    while True:
        k = dim + 1
        cuts = sorted(rng.sample(range(1, max_degree), k - 1))
        ws = tuple(
            sorted(b - a for a, b in zip((0, *cuts), (*cuts, rng.randint(cuts[-1] + 1, max_degree))))
        )
        if any(x < 1 for x in ws):
            continue
        w = WeightVector(ws)
        if weight_flags(w)[0]:
            return w


@pytest.fixture(scope="session")
def k3_weight_vectors():
    """The 95 sorted transverse weight vectors with d = 3."""
    from cywps.quasismooth import census

    records = census(3, 100, "transverse")
    assert len(records) == 95
    return [WeightVector(r.weights) for r in records]
