"""BayesLSH: Bayesian Locality Sensitive Hashing for fast similarity search.

This package reproduces the system described in:

    Venu Satuluri and Srinivasan Parthasarathy.
    "Bayesian Locality Sensitive Hashing for Fast Similarity Search."
    PVLDB 5(5), 2012.

The public API is intentionally small.  Most users only need:

``Dataset``
    A collection of (sparse) vectors plus metadata, the unit every algorithm
    operates on.  Built from a ``scipy.sparse`` matrix, a dense array, or a
    list of feature dictionaries / token sets.

``all_pairs_similarity``
    One-call all-pairs similarity search: picks a candidate generator and a
    verifier (BayesLSH by default) and returns every pair above a threshold.

``SearchEngine`` / ``make_pipeline``
    Explicit composition of a candidate generator with a verifier, matching
    the algorithm combinations evaluated in the paper (``AllPairs``,
    ``AP+BayesLSH``, ``LSH+BayesLSH-Lite`` and so on).

``BayesLSHParams``
    The ``epsilon`` (recall), ``delta``/``gamma`` (accuracy) knobs from the
    paper, the hash budget and the terminal rule ``on_budget``.

Example
-------
>>> import numpy as np
>>> from repro import Dataset, all_pairs_similarity
>>> rng = np.random.default_rng(0)
>>> data = Dataset.from_dense(rng.random((200, 50)))
>>> result = all_pairs_similarity(data, threshold=0.8)
>>> sorted(result.pairs())[:3]  # doctest: +SKIP
"""

from repro.core.params import BayesLSHParams
from repro.core.bayeslsh import BayesLSH
from repro.datasets.base import Dataset
from repro.search.engine import SearchEngine, all_pairs_similarity
from repro.search.pipelines import make_pipeline, PIPELINES
from repro.search.query import QueryIndex
from repro.search.results import SearchResult, ScoredPair
from repro.serving import load_query_index, save_query_index

__version__ = "1.0.0"

__all__ = [
    "BayesLSH",
    "BayesLSHParams",
    "Dataset",
    "PIPELINES",
    "QueryIndex",
    "ScoredPair",
    "SearchEngine",
    "SearchResult",
    "all_pairs_similarity",
    "load_query_index",
    "make_pipeline",
    "save_query_index",
    "__version__",
]
