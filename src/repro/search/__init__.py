"""End-to-end all-pairs similarity search pipelines.

A pipeline is a candidate generator combined with a candidate verifier.  The
paper's evaluation compares eight of them (AllPairs, AP+BayesLSH,
AP+BayesLSH-Lite, LSH, LSH Approx, LSH+BayesLSH, LSH+BayesLSH-Lite and
PPJoin+); :func:`repro.search.pipelines.make_pipeline` builds any of them by
name, and :func:`repro.search.engine.all_pairs_similarity` is the one-call
convenience entry point.
"""

from repro.search.engine import SearchEngine, all_pairs_similarity
from repro.search.pipelines import PIPELINES, make_pipeline, pipelines_for_measure
from repro.search.query import QueryIndex
from repro.search.results import QueryHits, ScoredPair, SearchResult

__all__ = [
    "PIPELINES",
    "QueryHits",
    "QueryIndex",
    "ScoredPair",
    "SearchEngine",
    "SearchResult",
    "all_pairs_similarity",
    "make_pipeline",
    "pipelines_for_measure",
]
