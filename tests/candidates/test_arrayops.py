"""``sorted_unique`` against ``np.unique``: values, order and dtype, on both of its paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.candidates import arrayops
from repro.candidates.arrayops import sorted_unique


def _assert_matches_np_unique(keys: np.ndarray) -> None:
    result = sorted_unique(keys)
    expected = np.unique(keys)
    assert result.dtype == expected.dtype
    np.testing.assert_array_equal(result, expected)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        dtype=st.sampled_from([np.int32, np.int64]),
        shape=hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=200),
        # a narrow range makes repeats the common case, not the rare one
        elements=st.integers(-20, 20),
    )
)
def test_matches_np_unique_on_repetitive_keys(keys):
    _assert_matches_np_unique(keys)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(dtype=np.int64, shape=hnp.array_shapes(min_dims=1, max_dims=1, max_side=50)))
def test_matches_np_unique_over_the_whole_int64_range(keys):
    _assert_matches_np_unique(keys)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    ("values", "branch"),
    [
        ([], "sort"),
        ([7], "mask"),
        ([4, 4, 4, 4], "mask"),
        ([-3, -1, -3, 0, -1], "mask"),
        ([2, 1, 0], "mask"),
        ([0, 1, 2], "mask"),
        (np.arange(-500, 1000, 3)[::-1], "mask"),
        ([-(10**9), 5, -3, 5, 10**9], "sort"),
        (np.arange(0, 10**6, 977), "sort"),
    ],
    ids=[
        "empty",
        "singleton",
        "all_equal",
        "negative",
        "descending",
        "distinct",
        "dense_range",
        "sparse_negative",
        "sparse_range",
    ],
)
def test_edge_cases(values, branch, dtype, monkeypatch):
    """Each case equals ``np.unique`` and takes the branch its key range calls for."""
    taken = []

    def recording(name):
        real = getattr(arrayops, f"_unique_by_{name}")

        def wrapped(*args):
            taken.append(name)
            return real(*args)

        return wrapped

    for name in ("mask", "sort"):
        monkeypatch.setattr(arrayops, f"_unique_by_{name}", recording(name))
    _assert_matches_np_unique(np.array(values, dtype=dtype))
    assert taken == [branch]


def test_input_is_not_modified():
    keys = np.array([3, 1, 3, 2])
    sorted_unique(keys)
    assert keys.tolist() == [3, 1, 3, 2]
