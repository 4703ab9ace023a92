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
    collision) and are not canonicalised; :meth:`CandidateSet.from_stream`
    deduplicates them into the candidate set.  ``metadata`` is filled in by
    the producing generator as the stream is consumed and is only complete
    once iteration has finished.
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
    def from_stream(cls, stream: "BlockStream", block_size: int | None = None) -> "CandidateSet":
        """Collect a fully-consumed :class:`BlockStream` into a candidate set.

        Raw blocks are buffered and folded into the deduplicated set by
        :meth:`from_arrays` (the set's own pairs plus the buffer, one sort).
        With ``block_size=None`` the fold happens once, at the end: every
        block is concatenated (a lone block is passed on as it is) — the
        shared tail of every generator's monolithic :meth:`generate`.  With a
        ``block_size`` the buffer is folded as soon as it holds
        ``max(len(set), block_size)`` raw pairs, so the raw pairs held at any
        time stay within that bound plus one block while the total sorting
        cost stays amortised ``O(N log N)``; the deduplicated set is kept as
        ``left`` / ``right`` arrays, 16 bytes per unique pair.  The result is
        the same for every ``block_size``.  ``metadata`` is the stream's,
        read once iteration has finished.
        """
        folded = cls.from_arrays([], [])
        left_parts: list[np.ndarray] = []
        right_parts: list[np.ndarray] = []
        buffered = 0
        for left, right in stream:
            left_parts.append(left)
            right_parts.append(right)
            buffered += len(left)
            if block_size is not None and buffered >= max(len(folded), block_size):
                folded = _fold(folded, left_parts, right_parts)
                left_parts, right_parts, buffered = [], [], 0
        if left_parts:
            folded = _fold(folded, left_parts, right_parts)
        folded.metadata = dict(stream.metadata)
        return folded

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

    def blocks(self, block_size: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(left, right)`` slices of at most ``block_size`` pairs, in order.

        ``None`` yields the whole set as one block.  An empty set yields one
        empty block, so verifying it block by block is verifying it once.
        """
        n_pairs = max(len(self), 1)
        step = n_pairs if block_size is None else block_size
        for start in range(0, n_pairs, step):
            yield self.left[start : start + step], self.right[start : start + step]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for i, j in zip(self.left, self.right):
            yield int(i), int(j)

    def as_set(self) -> set[tuple[int, int]]:
        """The candidate pairs as a Python set of ``(i, j)`` tuples."""
        return {(int(i), int(j)) for i, j in zip(self.left, self.right)}

    def __repr__(self) -> str:
        return f"CandidateSet(n_pairs={len(self)})"


def _fold(pairs: CandidateSet, left_parts: list, right_parts: list) -> CandidateSet:
    """``pairs`` plus the (non-empty list of) raw blocks, deduplicated by ``from_arrays``."""
    if len(pairs):
        left_parts = [pairs.left, *left_parts]
        right_parts = [pairs.right, *right_parts]
    if len(left_parts) == 1:  # one block: nothing to join, no copy
        return CandidateSet.from_arrays(left_parts[0], right_parts[0])
    return CandidateSet.from_arrays(np.concatenate(left_parts), np.concatenate(right_parts))


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
    def generate(self, collection: VectorCollection, block_size: int | None = None) -> CandidateSet:
        """Produce candidate pairs for the given collection.

        With a ``block_size``, the generators that stream (LSH, AllPairs,
        PPJoin+: ``generate_blocks(collection, block_size)``, a raw
        :class:`BlockStream`) generate and deduplicate in blocks of about that
        many raw pairs; the candidate set and its metadata are the same for
        every ``block_size``.
        """

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(measure={self._measure.name!r}, "
            f"threshold={self._threshold})"
        )
