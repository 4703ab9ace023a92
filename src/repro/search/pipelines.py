"""The eight pipelines from the paper's experimental setup (Section 5.1).

========================  ==============================  ==========================
pipeline name             candidate generation            verification
========================  ==============================  ==========================
``allpairs``              AllPairs                        exact
``ap_bayeslsh``           AllPairs                        BayesLSH
``ap_bayeslsh_lite``      AllPairs                        BayesLSH-Lite
``lsh``                   LSH banding                     exact
``lsh_approx``            LSH banding                     fixed-budget MLE estimate
``lsh_bayeslsh``          LSH banding                     BayesLSH
``lsh_bayeslsh_lite``     LSH banding                     BayesLSH-Lite
``ppjoin``                PPJoin+ prefix filtering        exact
========================  ==============================  ==========================

The LSH-based pipelines share one hash family between candidate generation
and verification, reproducing the amortisation the paper highlights
(advantage 3 of BayesLSH).  ``allpairs``/``ap_*`` pipelines require a cosine
measure; ``ppjoin`` requires a binary measure (Jaccard or binary cosine).
"""

from __future__ import annotations

from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.lsh_index import LSHGenerator
from repro.candidates.ppjoin import PPJoinGenerator
from repro.hashing.base import get_hash_family
from repro.search.engine import SearchEngine, as_collection
from repro.similarity.measures import get_measure
from repro.verification.bayes import BayesLSHLiteVerifier, BayesLSHVerifier
from repro.verification.exact import ExactVerifier
from repro.verification.lsh_approx import LSHApproxVerifier

__all__ = ["PIPELINES", "make_pipeline", "pipelines_for_measure"]

#: pipeline name -> short human-readable description (the paper's labels)
PIPELINES: dict[str, str] = {
    "allpairs": "AllPairs (exact)",
    "ap_bayeslsh": "AllPairs + BayesLSH",
    "ap_bayeslsh_lite": "AllPairs + BayesLSH-Lite",
    "lsh": "LSH (exact verification)",
    "lsh_approx": "LSH Approx (fixed-budget MLE estimates)",
    "lsh_bayeslsh": "LSH + BayesLSH",
    "lsh_bayeslsh_lite": "LSH + BayesLSH-Lite",
    "ppjoin": "PPJoin+ (exact, binary vectors only)",
}

_BAYES_KEYS = {
    "epsilon", "delta", "gamma", "k", "max_hashes", "on_budget", "fit_prior", "prior_sample_size"
}
_LITE_KEYS = {"epsilon", "h", "k", "fit_prior", "prior_sample_size"}
_LSH_GEN_KEYS = {"false_negative_rate", "signature_width"}
_APPROX_KEYS = {"num_hashes"}
#: pipeline-name suffix -> (verifier, the keyword arguments it takes)
_VERIFIERS = {
    "bayeslsh": (BayesLSHVerifier, _BAYES_KEYS),
    "bayeslsh_lite": (BayesLSHLiteVerifier, _LITE_KEYS),
    "approx": (LSHApproxVerifier, _APPROX_KEYS),
}


def pipelines_for_measure(measure: str) -> list[str]:
    """The pipeline names applicable to a similarity measure.

    AllPairs needs a cosine-style dot-product bound; PPJoin+ needs binary
    vectors; the LSH pipelines work for every measure.
    """
    name = get_measure(measure).name
    lsh_pipelines = ["lsh", "lsh_approx", "lsh_bayeslsh", "lsh_bayeslsh_lite"]
    if name == "cosine":
        return ["allpairs", "ap_bayeslsh", "ap_bayeslsh_lite"] + lsh_pipelines
    if name == "binary_cosine":
        return ["allpairs", "ap_bayeslsh", "ap_bayeslsh_lite"] + lsh_pipelines + ["ppjoin"]
    # jaccard
    return lsh_pipelines + ["ppjoin"]


def _split_kwargs(kwargs: dict, allowed: set[str]) -> dict:
    return {key: value for key, value in kwargs.items() if key in allowed}


def make_pipeline(
    name: str,
    data,
    measure: str = "cosine",
    threshold: float = 0.5,
    seed: int = 0,
    **kwargs,
) -> SearchEngine:
    """Build one of the paper's pipelines by name.

    Parameters
    ----------
    name:
        One of :data:`PIPELINES`.
    data:
        The collection the pipeline will run on (needed up front because
        verifiers bind to their collection, and so the LSH pipelines can
        share hashes between the two phases).
    measure, threshold, seed:
        Query parameters.
    kwargs:
        Forwarded to the underlying components where applicable:
        ``epsilon``/``delta``/``gamma``/``k``/``max_hashes``/``on_budget``
        (BayesLSH; the default ``on_budget="exact"`` is the hybrid,
        ``"estimate"`` is Algorithm 1 as published),
        ``h`` (BayesLSH-Lite), ``num_hashes`` (LSH Approx),
        ``false_negative_rate``/``signature_width`` (LSH generation),
        ``fit_prior``/``prior_sample_size`` (Jaccard prior fitting).
    """
    name = name.lower()
    if name not in PIPELINES:
        known = ", ".join(sorted(PIPELINES))
        raise ValueError(f"unknown pipeline {name!r}; expected one of: {known}")
    measure_obj = get_measure(measure)
    if name not in pipelines_for_measure(measure_obj.name):
        raise ValueError(
            f"pipeline {name!r} does not support measure {measure_obj.name!r}; "
            f"applicable pipelines: {', '.join(pipelines_for_measure(measure_obj.name))}"
        )
    unknown = set(kwargs) - (_BAYES_KEYS | _LITE_KEYS | _LSH_GEN_KEYS | _APPROX_KEYS)
    if unknown:
        raise TypeError(f"unknown pipeline arguments: {', '.join(sorted(unknown))}")

    collection = as_collection(data)
    generator_name, _, verifier_name = name.partition("_")
    if generator_name == "lsh":
        # One hash family shared by candidate generation and verification.
        family = get_hash_family(
            measure_obj.lsh_family, measure_obj.prepare(collection), seed=seed
        )
        generator = LSHGenerator(
            measure_obj, threshold, seed=seed, family=family, **_split_kwargs(kwargs, _LSH_GEN_KEYS)
        )
        shared = {"family": family}
    elif generator_name == "ppjoin":
        generator, shared = PPJoinGenerator(measure_obj, threshold), {}
    else:  # allpairs / ap_*
        generator, shared = AllPairsGenerator(measure_obj, threshold), {}
    if verifier_name:
        verifier_class, keys = _VERIFIERS[verifier_name]
        verifier = verifier_class(
            collection, measure_obj, threshold, seed=seed, **shared, **_split_kwargs(kwargs, keys)
        )
    else:
        verifier = ExactVerifier(collection, measure_obj, threshold)
    return SearchEngine(generator, verifier, name=name)
