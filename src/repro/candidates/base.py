"""Candidate generator interface and the candidate-set container."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.candidates.arrayops import sorted_unique
from repro.similarity.measures import SimilarityMeasure, get_measure
from repro.similarity.vectors import VectorCollection

__all__ = ["BlockStream", "CandidateGenerator", "CandidateSet", "UNBOUNDED_BLOCK"]

#: block size that never splits: a monolithic generate() consuming its own
#: block stream passes this so every natural block arrives whole
UNBOUNDED_BLOCK = 1 << 62


class BlockStream:
    """A stream of raw candidate-pair blocks with late-bound metadata.

    Iterating yields ``(left, right)`` parallel index-array blocks.  Blocks
    are *raw*: pairs may repeat across blocks (LSH emits one copy per band
    collision) and are not canonicalised; consumers deduplicate incrementally
    (see :class:`repro.search.executor.StreamExecutor`) or via
    :meth:`CandidateSet.from_arrays`.  ``metadata`` is filled in by the
    producing generator as the stream is consumed and is only complete once
    iteration has finished.
    """

    def __init__(self, blocks: Iterator[tuple[np.ndarray, np.ndarray]], metadata: dict):
        self._blocks = blocks
        self.metadata = metadata

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self._blocks


@dataclass
class CandidateSet:
    """A deduplicated set of candidate pairs ``(i, j)`` with ``i < j``.

    Attributes
    ----------
    left, right:
        Parallel index arrays; ``left[k] < right[k]`` for every ``k``.
    metadata:
        Free-form statistics recorded by the generator (index size, number of
        raw collisions before deduplication, and so on).
    """

    left: np.ndarray
    right: np.ndarray
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], **metadata) -> "CandidateSet":
        """Build a candidate set from an iterable of ``(i, j)`` pairs.

        Pairs are canonicalised to ``i < j``, self-pairs are dropped and
        duplicates removed.
        """
        unique: set[tuple[int, int]] = set()
        for i, j in pairs:
            if i == j:
                continue
            unique.add((int(i), int(j)) if i < j else (int(j), int(i)))
        if unique:
            ordered = sorted(unique)
            left = np.array([p[0] for p in ordered], dtype=np.int64)
            right = np.array([p[1] for p in ordered], dtype=np.int64)
        else:
            left = np.zeros(0, dtype=np.int64)
            right = np.zeros(0, dtype=np.int64)
        return cls(left=left, right=right, metadata=dict(metadata))

    @classmethod
    def from_stream(cls, stream: "BlockStream") -> "CandidateSet":
        """Collect a fully-consumed :class:`BlockStream` into a candidate set.

        Concatenates every raw block (a lone block is passed on as it is)
        and canonicalises/deduplicates via :meth:`from_arrays` with the
        stream's (then complete) metadata — the shared tail of every
        generator's monolithic :meth:`generate`.
        """
        left_parts: list[np.ndarray] = []
        right_parts: list[np.ndarray] = []
        for left, right in stream:
            left_parts.append(left)
            right_parts.append(right)
        if len(left_parts) == 1:  # one block: nothing to join, no copy
            return cls.from_arrays(left_parts[0], right_parts[0], **stream.metadata)
        left = np.concatenate(left_parts) if left_parts else np.zeros(0, dtype=np.int64)
        right = np.concatenate(right_parts) if right_parts else np.zeros(0, dtype=np.int64)
        return cls.from_arrays(left, right, **stream.metadata)

    @classmethod
    def from_arrays(cls, left, right, **metadata) -> "CandidateSet":
        """Build a candidate set from parallel index arrays (canonicalising/deduplicating).

        Pairs are canonicalised to ``i < j``, self-pairs are dropped and
        duplicates removed; the result is in ascending ``(i, j)`` order.
        Input that is already exactly that — 1-D, every pair
        ``0 <= i < j < 2**31 - 1``, strictly ascending, as AllPairs emits a
        single probe batch — is recognised in one O(n) pass and kept: the
        returned ``left`` / ``right`` are then the caller's arrays (after
        ``np.asarray(..., dtype=np.int64)``), not copies, and alias them.
        Any other input is canonicalised and sorted into new arrays.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left and right must have the same shape")
        if _is_canonical(left, right):
            return cls(left=left, right=right, metadata=dict(metadata))
        keep = left != right
        low = np.minimum(left[keep], right[keep])
        high = np.maximum(left[keep], right[keep])
        if len(low):
            # Deduplicate via a composite integer key: one flat int64 sort
            # instead of a lexicographic row sort.
            span = int(high.max()) + 1
            if span >= (1 << 31):  # key would overflow int64; take the slow path
                stacked = np.unique(np.stack([low, high], axis=1), axis=0)
                return cls(left=stacked[:, 0], right=stacked[:, 1], metadata=dict(metadata))
            keys = sorted_unique(low * span + high)
            return cls(left=keys // span, right=keys % span, metadata=dict(metadata))
        return cls(
            left=np.zeros(0, dtype=np.int64),
            right=np.zeros(0, dtype=np.int64),
            metadata=dict(metadata),
        )

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """``(left, right)`` of the pairs at ``positions`` (an index or an index array)."""
        return self.left[positions], self.right[positions]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for i, j in zip(self.left, self.right):
            yield int(i), int(j)

    def as_set(self) -> set[tuple[int, int]]:
        """The candidate pairs as a Python set of ``(i, j)`` tuples."""
        return {(int(i), int(j)) for i, j in zip(self.left, self.right)}

    def __repr__(self) -> str:
        return f"CandidateSet(n_pairs={len(self)})"


def _is_canonical(left: np.ndarray, right: np.ndarray) -> bool:
    """Whether ``from_arrays`` would return these very pairs, in this order.

    True for non-empty 1-D pairs with ``0 <= left < right``, strictly
    ascending by ``(left, right)``, whose composite keys fit the fast path
    (a span of at least ``2**31`` keeps ``from_arrays``' slow path).  Once
    ``left[0] >= 0``, strictly ascending keys ``left * span + right`` rule
    out a negative index later on, so the key comparison covers the order.
    """
    if left.ndim != 1 or not len(left) or left[0] < 0:
        return False
    span = int(right.max()) + 1
    if span >= 1 << 31 or not np.all(left < right):
        return False
    keys = left * span + right
    return bool(np.all(keys[1:] > keys[:-1]))


class CandidateGenerator(ABC):
    """Base class of all candidate generation algorithms.

    A generator is constructed with a similarity measure and a threshold and
    produces a :class:`CandidateSet` from a vector collection.  Generators
    are free to miss pairs (LSH misses with a controlled false-negative rate)
    or to produce false positives (all of them do); the verification phase is
    responsible for the final answer.
    """

    #: machine-readable name used by pipelines and reports
    name: str = ""

    def __init__(self, measure: str | SimilarityMeasure, threshold: float):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        self._measure = get_measure(measure)
        self._threshold = float(threshold)

    @property
    def measure(self) -> SimilarityMeasure:
        """The similarity measure candidates are generated for."""
        return self._measure

    @property
    def threshold(self) -> float:
        """The similarity threshold the candidate set targets."""
        return self._threshold

    @abstractmethod
    def generate(self, collection: VectorCollection) -> CandidateSet:
        """Produce candidate pairs for the given collection."""

    def generate_blocks(self, collection: VectorCollection, block_size: int) -> BlockStream:
        """Stream candidate pairs in bounded-size raw blocks.

        The union of the yielded blocks (canonicalised and deduplicated)
        equals :meth:`generate`'s pair set, and the stream's final metadata
        equals the generated candidate set's metadata.  Generators with a
        naturally streaming structure (LSH bands, inverted-index probe
        batches) override this so no monolithic pair array is ever
        materialised; the base implementation falls back to chunking a full
        :meth:`generate` run.
        """
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        candidates = self.generate(collection)

        def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            for start in range(0, len(candidates), block_size):
                end = start + block_size
                yield candidates.left[start:end], candidates.right[start:end]

        return BlockStream(blocks(), dict(candidates.metadata))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(measure={self._measure.name!r}, "
            f"threshold={self._threshold})"
        )
