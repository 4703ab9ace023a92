"""Flat-array primitives shared by the candidate generators.

The array-based candidate generators all manipulate *ragged* structures —
inverted-index postings of different lengths, hash buckets of different
sizes — without per-element Python loops.  The primitives here cover the
patterns they need:

* :func:`ragged_arange` — concatenated ``arange`` segments, the core of every
  "gather a variable-length prefix per key" step;
* :func:`pairs_within_groups` — all intra-group index pairs of a grouped
  array, the core of LSH bucket pair enumeration;
* :func:`sorted_unique` — the one definition of "sorted distinct integer
  keys", which every pair/probe deduplication goes through.

The first two are built from ``repeat``/``cumsum`` only, so their cost is
linear in the output size; the third is a bool mask over a dense key range
and one sort otherwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ragged_arange", "pairs_within_groups", "budgeted_batches", "sorted_unique"]

#: keys whose range is at most this many times their count are deduplicated
#: through a bool mask instead of a sort
_MASK_RANGE_PER_KEY = 3


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array: a bool mask or one sort.

    Same values, order and dtype as ``np.unique(keys)``.  Call this instead:
    from NumPy 2.3 a plain ``np.unique`` on integers builds a hash table
    before it sorts, which costs ~16x this on the pair-key arrays of a join.

    When the keys are dense — their range ``max - min + 1`` is at most
    3 times their count — they are scattered into a bool mask over that
    range and read back with ``flatnonzero``, which is linear in keys plus
    range.  Otherwise they are sorted and a neighbour mask drops repeats.
    The constant is where the two cross over on random int64 keys (3,000 to
    1.7 M keys, NumPy 2.4 on a 2-core x86-64 Xeon): at a range of 2 slots
    per key the mask is 1.3-2.5x faster, at 4 slots per key the two are
    within 1.5x either way, and from 8 the sort is faster.  Under ~1,000
    keys both take microseconds.

    >>> sorted_unique(np.array([3, 1, 3, 2, 1]))
    array([1, 2, 3])
    """
    if len(keys):
        low, high = int(keys.min()), int(keys.max())
        if high - low + 1 <= _MASK_RANGE_PER_KEY * len(keys):
            return _unique_by_mask(keys, low, high)
    return _unique_by_sort(keys)


def _unique_by_mask(keys: np.ndarray, low: int, high: int) -> np.ndarray:
    present = np.zeros(high - low + 1, dtype=bool)
    present[keys - low] = True
    return (np.flatnonzero(present) + low).astype(keys.dtype, copy=False)


def _unique_by_sort(keys: np.ndarray) -> np.ndarray:
    ordered = np.sort(keys)
    distinct = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


def budgeted_batches(
    lengths: np.ndarray, budget: int, group_ids: np.ndarray | None = None
):
    """Yield ``(start, end)`` index ranges whose summed lengths stay near ``budget``.

    Used to bound how many ragged-gather results are materialised at once.
    Each batch holds at least one entry, so a single oversized entry still
    forms its own batch.  When ``group_ids`` is given (same length as
    ``lengths``), batch boundaries are extended so a group is never split
    across batches — required when downstream accounting must see a group's
    entries together.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    cumulative = np.cumsum(lengths)
    n_entries = len(lengths)
    start = 0
    while start < n_entries:
        consumed = int(cumulative[start - 1]) if start else 0
        end = int(np.searchsorted(cumulative, consumed + budget, side="right"))
        end = max(end, start + 1)
        if group_ids is not None:
            last_group = group_ids[end - 1]
            while end < n_entries and group_ids[end] == last_group:
                end += 1
        yield start, end
        start = end


def ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for each ``(s, l)`` pair.

    >>> ragged_arange(np.array([10, 40]), np.array([3, 2]))
    array([10, 11, 12, 40, 41])
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    positions = np.arange(total, dtype=np.int64)
    return np.repeat(starts, lengths) + (positions - np.repeat(offsets, lengths))


def pairs_within_groups(
    values: np.ndarray, group_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All unordered intra-group pairs of a group-sorted array.

    ``values`` is partitioned into consecutive groups by ``group_offsets``
    (``len(group_offsets) == n_groups + 1``).  For every group the function
    emits each pair ``(values[p], values[q])`` with ``p < q`` inside the
    group, ordered so that the *later* element pairs with every *earlier*
    element — the same enumeration order as the classic nested-loop bucket
    scan, with the first returned array holding the earlier elements.

    Returns ``(earlier, later)`` parallel arrays of length
    ``sum of s_g * (s_g - 1) / 2``.
    """
    values = np.asarray(values)
    group_offsets = np.asarray(group_offsets, dtype=np.int64)
    sizes = np.diff(group_offsets)
    if not len(sizes) or int(sizes.max(initial=0)) < 2:
        empty = np.zeros(0, dtype=values.dtype)
        return empty, empty
    # local index of each element within its group
    total = int(sizes.sum())
    local = np.arange(total, dtype=np.int64) - np.repeat(group_offsets[:-1], sizes)
    # element at local index l pairs with the l earlier elements of its group
    later = np.repeat(values, local)
    group_start_per_element = np.repeat(group_offsets[:-1], sizes)
    earlier_positions = ragged_arange(group_start_per_element, local)
    earlier = values[earlier_positions]
    return earlier, later
