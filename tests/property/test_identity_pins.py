"""Answers pinned to the parent commit of the terminal-rule change (PR 21).

That change made the hybrid the default of the ``*_bayeslsh`` pipelines and
of ``QueryIndex.query`` — a declared break of bit-identity for the default
only.  Everything else must still return what commit ``dc31c1b`` returned,
bit for bit: explicit Algorithm-1 parameters, default BayesLSH-Lite, and
``rank_by="estimate"``.  The SHA-256 digests below were taken there, over
the benchmark's own full-scale workloads (``benchmarks/e2e/common.py``).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from e2e.common import PARAMS, PROGRAM_SEED, build_index, offline_matrix, serving_data  # noqa: E402

from repro.search.pipelines import make_pipeline  # noqa: E402

_ALGORITHM_1 = {"on_budget": "estimate", "max_hashes": 2048}
#: (workload, data seed) -> (pipeline arguments, returned pairs, digest at the parent)
_JOINS = {
    ("ap_text", 1): (_ALGORITHM_1, 1248, "673e22514222e39161610df4e80d6fab0dada0e4b990d9da5b6c710eef143e2b"),
    ("ap_text", 2): (_ALGORITHM_1, 1248, "e448becd19c477894a7da680c7f51449b7e16d1b2ecb500ec78714428c6bafb2"),
    ("ap_graph", 1): (_ALGORITHM_1, 20367, "c7d37d23ae42fd2c5bc40a035d24a6e4568e210747a8d51f477663510c383be9"),
    ("ap_graph", 2): (_ALGORITHM_1, 21773, "81ac9b2070908b3d5bfc924b18c2e321db0610d635dd5fe3296097ca0478206a"),
    ("lsh_sets", 1): ({}, 6112, "3ac5ae0c32941ac25ebc7773991f0f2a45a6e1fe8c30c4ec7ac45c3cbaae3e6e"),
    ("lsh_sets", 2): ({}, 6118, "5b90334e1ae144d69a4a7824899fd34526a5d65ad35b406ada2da665c6703fda"),
}


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(_JOINS))
def test_offline_join_answers_equal_the_parents(workload, seed):
    arguments, n_pairs, expected = _JOINS[workload, seed]
    params = PARAMS["full"][workload]
    matrix = offline_matrix(params, seed)
    result = make_pipeline(
        params["pipeline"],
        matrix,
        measure=params["measure"],
        threshold=params["threshold"],
        seed=PROGRAM_SEED,
        **arguments,
    ).run(matrix)
    assert len(result) == n_pairs
    assert _digest(
        result.left.astype(np.int64),
        result.right.astype(np.int64),
        np.asarray(result.similarities, dtype=np.float64),
    ) == expected


def test_estimate_ranking_answers_equal_the_parents():
    params = PARAMS["full"]["index_batch"]
    data = serving_data(params, 1)
    ranked = build_index(params, data.base).top_k_many(data.queries[:256], k=10, rank_by="estimate")
    flat = np.array(
        [(q, pair.j, pair.similarity) for q, hits in enumerate(ranked) for pair in hits],
        dtype=np.float64,
    )
    assert len(flat) == 278
    assert _digest(flat) == "5e7a7357f34ac2d659983c06bb5dd4feaf6ea40b433437a38f2883767f71fede"
