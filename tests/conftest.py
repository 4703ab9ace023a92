"""Shared fixtures for the BayesLSH test-suite.

Fixtures are deliberately small: most algorithmic properties can be checked
on collections of a few dozen to a few hundred vectors, and keeping them
small keeps the full suite fast enough to run on every change.
"""

from __future__ import annotations

import gc
import re
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.datasets.io import pending_temp_files
from repro.datasets.synthetic import synthetic_graph, synthetic_text_corpus
from repro.similarity.transforms import tfidf_weighting
from repro.similarity.vectors import VectorCollection

_SHM_DIR = Path("/dev/shm")
_PROC_MAPS = Path("/proc/self/maps")
#: flat-layout member files carry a generation stamp — ``name.g<N>.bin``
_FLAT_MEMBER_RE = re.compile(r"\.g\d+\.bin$")


@pytest.fixture(autouse=True)
def shm_leak_audit():
    """Fail any test that leaves a stray shared-memory segment behind.

    The worker pools publish nothing to POSIX shared memory
    (``/dev/shm/psm_*``, :mod:`multiprocessing.shared_memory`'s names): a
    worker inherits its state through the fork and receives only queue
    messages.  Comparing the directory before and after each test keeps it
    that way, on every path including exceptions and injected worker
    crashes.  Only ``psm_*`` names are audited — other processes own the
    rest of ``/dev/shm``.
    """
    if not _SHM_DIR.is_dir():  # non-Linux dev boxes: nothing to audit
        yield
        return
    before = {entry.name for entry in _SHM_DIR.iterdir()}
    yield
    after = {entry.name for entry in _SHM_DIR.iterdir()}
    leaked = sorted(name for name in after - before if name.startswith("psm_"))
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


def _mapped_flat_members() -> set[str]:
    """Flat-layout member files currently memory-mapped into this process."""
    try:
        lines = _PROC_MAPS.read_text().splitlines()
    except OSError:
        return set()
    mapped = set()
    for line in lines:
        parts = line.rsplit(maxsplit=1)
        if len(parts) == 2 and _FLAT_MEMBER_RE.search(parts[1]):
            mapped.add(parts[1])
    return mapped


@pytest.fixture(autouse=True)
def mmap_leak_audit():
    """Fail any test that leaves flat-layout member files mapped behind.

    ``storage="mmap"`` loads publish snapshot arrays as ``np.memmap`` views;
    the mapping lives exactly as long as the arrays do, so a test that drops
    its index must drop the mappings with it.  Mappings a module-scoped
    fixture holds across tests appear in the *before* snapshot (pytest
    instantiates higher-scoped fixtures first) and are exempt.  A reference
    cycle can delay the unmap past the test's end without being a leak, so a
    mismatch is re-checked once after a full ``gc.collect()``.
    """
    if not _PROC_MAPS.exists():  # non-Linux dev boxes: nothing to audit
        yield
        return
    before = _mapped_flat_members()
    yield
    leaked = _mapped_flat_members() - before
    if leaked:
        gc.collect()
        leaked = _mapped_flat_members() - before
    assert not leaked, f"test left flat-layout files mapped: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def temp_file_leak_audit():
    """Fail any test whose atomic writers abandoned a temp file.

    Every on-disk artefact goes through
    :func:`repro.datasets.io.atomic_writer`, which registers its temp file
    until commit or cleanup.  The registry must be empty between tests; the
    deliberate leftovers of injected crashes are exempt (the writer drops
    them from the registry on ``InjectedCrash``, mirroring a real crash).
    """
    yield
    pending = sorted(str(path) for path in pending_temp_files())
    assert not pending, f"test leaked atomic-writer temp files: {pending}"


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dense_collection() -> VectorCollection:
    """40 dense non-negative vectors in 12 dimensions."""
    generator = np.random.default_rng(7)
    return VectorCollection.from_dense(generator.random((40, 12)))


@pytest.fixture(scope="session")
def sparse_text_collection() -> VectorCollection:
    """A small TF-IDF weighted text corpus with planted near-duplicates."""
    corpus = synthetic_text_corpus(
        n_documents=150,
        vocabulary_size=600,
        average_length=30,
        duplicate_fraction=0.4,
        cluster_size=3,
        mutation_rate=0.1,
        seed=11,
    )
    return tfidf_weighting(corpus.collection)


@pytest.fixture(scope="session")
def sparse_text_dataset(sparse_text_collection) -> Dataset:
    return Dataset(sparse_text_collection, name="test-text")


@pytest.fixture(scope="session")
def binary_sets_collection() -> VectorCollection:
    """A small binary collection (sets) with overlapping supports."""
    corpus = synthetic_text_corpus(
        n_documents=120,
        vocabulary_size=400,
        average_length=25,
        duplicate_fraction=0.4,
        cluster_size=3,
        mutation_rate=0.08,
        seed=23,
    )
    return corpus.collection.binarized()


@pytest.fixture(scope="session")
def graph_dataset() -> Dataset:
    """A small community graph with TF-IDF weighted adjacency rows."""
    graph = synthetic_graph(
        n_nodes=200,
        average_degree=12,
        n_communities=10,
        within_community_fraction=0.85,
        seed=31,
    )
    return Dataset(tfidf_weighting(graph.collection), name="test-graph")


@pytest.fixture()
def tiny_collection() -> VectorCollection:
    """A hand-constructed collection where exact similarities are easy to verify."""
    rows = [
        {0: 1.0, 1: 1.0, 2: 1.0},          # 0
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},  # 1: high overlap with 0
        {4: 2.0, 5: 1.0},                  # 2
        {4: 2.0, 5: 1.0, 6: 0.5},          # 3: high overlap with 2
        {7: 1.0},                          # 4: isolated
        {},                                # 5: empty
    ]
    return VectorCollection.from_dicts(rows, n_features=8)
