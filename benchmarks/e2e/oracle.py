"""Brute-force ground truth for the benchmark's recall and accuracy checks.

Independent of the code under test on purpose: it shares no kernel with
``repro`` beyond scipy/numpy products, so a bit-identical *wrong* answer
from the library cannot pass.  ``repro.evaluation.exact_all_pairs`` scores
every feature-sharing pair through the chunked pair kernel, which on a Zipf
corpus is nearly every pair (seconds for a few thousand rows, minutes for
Jaccard at 12 000); here the inner products of a whole block of rows come
from one product — the few hundred most frequent columns through a dense
float32 matmul, the long tail through a sparse one — and only entries near
or above the threshold are rescored exactly in float64.  The smoke test
cross-checks the result against ``exact_all_pairs`` on a 300-row sample.

Similarities follow the library's definitions: cosine is
``<a, b> / (|a| |b|)``, Jaccard is ``|a & b| / |a | b|`` on the binary
supports, and "above the threshold" is strict, as every pipeline emits.
A pair within ``TIE_TOL`` of the threshold is left out of the truth: on
binary data such ties are common (Jaccard of exactly 1/2) and whether one
is ``> t`` depends on the last bit of a rounding the oracle does not share
with the library.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

MEASURES = ("cosine", "jaccard")
TIE_TOL = 1e-9
#: slack of the float32 coarse pass; survivors are rescored in float64
_COARSE_SLACK = 1e-3
_HEAD_COLUMNS = 256


class _View:
    """A matrix as the measure sees it, with the per-row size it divides by."""

    def __init__(self, matrix, measure: str):
        if measure not in MEASURES:
            raise ValueError(f"oracle supports {MEASURES}, got {measure!r}")
        self.measure = measure
        self.matrix = sp.csr_matrix(matrix, dtype=np.float64)
        self.matrix.sum_duplicates()
        if measure == "jaccard":
            self.matrix = self.matrix.copy()
            self.matrix.data[:] = 1.0
            self.size = np.diff(self.matrix.indptr).astype(np.float64)
        else:
            squared = self.matrix.multiply(self.matrix).sum(axis=1)
            self.size = np.sqrt(np.asarray(squared).ravel())


def _similarity(inner, size_left, size_right, measure: str) -> np.ndarray:
    if measure == "cosine":
        denom = size_left * size_right
        values = np.divide(inner, denom, out=np.zeros_like(inner), where=denom > 0)
        return np.minimum(values, 1.0)
    union = size_left + size_right - inner
    return np.divide(inner, union, out=np.zeros_like(inner), where=union > 0)


def _pair_similarities(a: _View, left, b: _View, right) -> np.ndarray:
    out = np.empty(len(left), dtype=np.float64)
    for start in range(0, len(left), 65536):
        l, r = left[start : start + 65536], right[start : start + 65536]
        inner = np.asarray(a.matrix[l].multiply(b.matrix[r]).sum(axis=1)).ravel()
        out[start : start + 65536] = _similarity(inner, a.size[l], b.size[r], a.measure)
    return out


def pair_similarities(left_matrix, left, right_matrix, right, measure: str) -> np.ndarray:
    """Exact similarity of row ``left[p]`` of one matrix to ``right[p]`` of the other."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    return _pair_similarities(
        _View(left_matrix, measure), left, _View(right_matrix, measure), right
    )


def cross_above(queries, matrix, measure: str, threshold: float, block: int = 512):
    """Every ``(query row, matrix row, similarity)`` with similarity above the threshold."""
    q, m = _View(queries, measure), _View(matrix, measure)
    frequency = np.diff(m.matrix.tocsc().indptr)
    by_frequency = np.argsort(-frequency, kind="stable")
    head, tail = by_frequency[:_HEAD_COLUMNS], by_frequency[_HEAD_COLUMNS:]
    m_head = m.matrix[:, head].toarray().astype(np.float32)
    m_tail = m.matrix[:, tail].T.tocsr()
    q_head, q_tail = q.matrix[:, head], q.matrix[:, tail]
    size_m = m.size.astype(np.float32)
    rows, cols = [], []
    for start in range(0, q.matrix.shape[0], block):
        stop = min(start + block, q.matrix.shape[0])
        inner = q_head[start:stop].toarray().astype(np.float32) @ m_head.T
        inner += (q_tail[start:stop] @ m_tail).toarray().astype(np.float32)
        size_q = q.size[start:stop].astype(np.float32)[:, None]
        if measure == "cosine":
            bar = (threshold - _COARSE_SLACK) * size_q * size_m[None, :]
        else:
            bar = (threshold - _COARSE_SLACK) * (size_q + size_m[None, :] - inner)
        r, c = np.nonzero((inner > bar) & (inner > 0))
        rows.append(r.astype(np.int64) + start)
        cols.append(c.astype(np.int64))
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    sims = _pair_similarities(q, rows, m, cols)
    keep = sims > threshold + TIE_TOL
    return rows[keep], cols[keep], sims[keep]


def all_pairs_above(matrix, measure: str, threshold: float, block: int = 512):
    """Every pair ``i < j`` of rows with similarity above the threshold."""
    left, right, sims = cross_above(matrix, matrix, measure, threshold, block)
    keep = left < right
    return left[keep], right[keep], sims[keep]


def pair_keys(left, right, n_right: int) -> np.ndarray:
    """One int64 key per pair, for set operations on pair lists."""
    return np.asarray(left, dtype=np.int64) * int(n_right) + np.asarray(right, dtype=np.int64)


def recall(truth_keys: np.ndarray, returned_keys: np.ndarray) -> float:
    """Share of the true pairs that were returned (1.0 when there are none)."""
    if len(truth_keys) == 0:
        return 1.0
    return float(np.isin(truth_keys, returned_keys).sum()) / len(truth_keys)
