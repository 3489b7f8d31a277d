"""The column-backed result view of the bulk kernels.

:class:`repro.runtime.bulk.ColumnMap` must behave as the dict it stands
for: the CLI, the fuzz harness and the tests compare results with ``==``
and read them key by key.  (That validation reads its columns instead is
pinned in ``tests/zoo/test_columnar_validation.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.bulk import ColumnMap


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(-(2**40), 2**40), st.booleans()), max_size=40
    ),
    as_bool=st.booleans(),
)
def test_view_behaves_as_its_dict(data, as_bool):
    column = np.array([x for x, _ in data], dtype=np.int64)
    if as_bool:
        column = column % 2 == 0
    mask = np.array([keep for _, keep in data], dtype=bool)
    view = ColumnMap(column, mask)
    want = {v: column[v].item() for v in range(len(data)) if mask[v]}

    assert view == want and want == view
    assert not (view != want) and not (want != view)
    assert len(view) == len(want)
    assert list(view) == sorted(want)
    assert list(view.keys()) == list(want.keys())
    assert list(view.values()) == list(want.values())
    assert list(view.items()) == list(want.items())
    assert all(type(x) is type(y) for x, y in zip(view.values(), want.values()))
    for key in (-1, -len(data), 0, len(data) - 1, len(data), len(data) + 5, "0", None):
        assert (key in view) == (key in want)
        assert view.get(key, "missing") == want.get(key, "missing")
        if key not in want:
            with pytest.raises(KeyError):
                view[key]
        else:
            assert view[key] == want[key]
    if want:
        other = dict(want)
        k = next(iter(other))
        other[k] = not other[k] if as_bool else other[k] + 1
        assert view != other and other != view


def test_view_is_read_only_and_full_without_mask():
    col = np.arange(5, dtype=np.int64)
    view = ColumnMap(col)
    assert view == dict(enumerate(range(5)))
    assert view.full and len(view) == 5
    with pytest.raises(ValueError):
        view.column[0] = 7
    col[0] = 9  # the caller's array stays writable; the view sees it
    assert view[0] == 9
    with pytest.raises(ValueError):
        ColumnMap(col, np.ones(4, dtype=bool))
