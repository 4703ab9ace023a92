"""Candidate generator interface and the candidate-set container."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.candidates.arrayops import sorted_unique
from repro.similarity.measures import SimilarityMeasure, get_measure
from repro.similarity.vectors import VectorCollection

__all__ = ["BlockStream", "CandidateGenerator", "CandidateSet"]

#: pair keys are ``left << 31 | right``; an index from here on takes the slow path
_KEY_LIMIT = (1 << 31) - 1


class BlockStream:
    """A stream of raw candidate-pair blocks with late-bound metadata.

    Iterating yields ``(left, right)`` parallel index-array blocks of at most
    the ``block_size`` the stream was made for (``None``: every natural block
    whole).  Blocks are *raw*: not canonicalised, and pairs may repeat across
    blocks (LSH emits one copy per band collision; AllPairs and PPJoin+ never
    repeat a pair); :meth:`CandidateSet.from_stream` deduplicates them into
    the candidate set.  ``metadata`` is filled in by
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

        Raw blocks are buffered.  A fold merges the buffer into the set held
        so far, which is never re-canonicalised: canonical blocks are
        ascending runs as they are, the others go through :meth:`from_arrays`
        together, and one stable sort of the runs' keys merges them, repeats
        dropped.  With
        ``block_size=None`` nothing is held: the one fold, at the end, takes
        every block concatenated (a lone block as it is).  With a
        ``block_size`` the buffer is folded once it holds ``max(len(set),
        block_size)`` raw pairs, so the raw pairs held stay within that bound
        plus one block; the held set is ``left`` / ``right``, 16 bytes per
        unique pair.  The result is the same for every ``block_size``;
        ``metadata`` is the stream's, read once iteration has finished.
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


def _fold(held: CandidateSet, left_parts: list, right_parts: list) -> CandidateSet:
    """The set ``held`` plus the (non-empty list of) raw blocks, deduplicated."""
    if not len(held):
        if len(left_parts) == 1:  # one block: nothing to join, no copy
            return CandidateSet.from_arrays(left_parts[0], right_parts[0])
        return CandidateSet.from_arrays(np.concatenate(left_parts), np.concatenate(right_parts))
    # The held set and canonical blocks (AllPairs') are ascending runs
    # already; from the first other block on, the blocks are canonicalised
    # together into one more run.
    runs, rest = [held], []
    for left, right in zip(left_parts, right_parts):
        left, right = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        if not rest and _is_canonical(left, right):
            runs.append(CandidateSet(left, right))
        else:
            rest.append((left, right))
    if rest:
        runs.append(CandidateSet.from_arrays(*map(np.concatenate, zip(*rest))))
    left = [run.left for run in runs]
    right = [run.right for run in runs]
    if max(int(part.max(initial=0)) for part in right) >= _KEY_LIMIT:
        return CandidateSet.from_arrays(np.concatenate(left), np.concatenate(right))
    # A stable sort (timsort) merges the runs and leaves every repeat next to its twin.
    keys = np.concatenate([high << 31 | low for high, low in zip(left, right)])
    keys.sort(kind="stable")
    distinct = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    return CandidateSet(left=keys >> 31, right=keys & _KEY_LIMIT)


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
    produces a :class:`CandidateSet` from a vector collection.  A generator
    is its block stream: it implements :meth:`generate_blocks` only, and the
    one :meth:`generate` collects that stream.  Generators
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

    def generate(self, collection: VectorCollection, block_size: int | None = None) -> CandidateSet:
        """Candidate pairs: :meth:`generate_blocks` collected by :meth:`CandidateSet.from_stream`.

        The set and its metadata are the same for every ``block_size``.
        """
        return CandidateSet.from_stream(self.generate_blocks(collection, block_size), block_size)

    @abstractmethod
    def generate_blocks(
        self, collection: VectorCollection, block_size: int | None = None
    ) -> BlockStream:
        """The raw candidate pairs, as blocks of at most ``block_size`` pairs.

        ``None`` yields every natural block (a probe batch, an LSH band)
        whole.  Raises ``ValueError`` for a ``block_size`` below one.
        """

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(measure={self._measure.name!r}, "
            f"threshold={self._threshold})"
        )
