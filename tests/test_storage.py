"""The JSON writer: integer arrays are written as json.dumps writes lists."""

import json

import numpy as np
import pytest

from gainquad.storage import _array_text, json_text

DTYPES = [np.int32, np.int64, np.uint16, np.uint32]


def oracle(a):
    return json.dumps(a.tolist(), separators=(",", ":"))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_arrays_match_the_oracle(dtype, k):
    rng = np.random.default_rng(k)
    top = np.iinfo(dtype).max
    for m in (0, 1, 2, 57):
        for high in (1, 10, 1000, top):
            a = rng.integers(0, high, (m, k), endpoint=True).astype(dtype)
            assert _array_text(a) == oracle(a)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_digit_boundaries_match_the_oracle(dtype, k):
    top = np.iinfo(dtype).max
    edges = {x for d in range(11) for x in (10 ** d - 1, 10 ** d)} | {2 ** 31 - 1, top}
    values = np.array(sorted(x for x in edges if x <= top), dtype=dtype)
    for m in (1, len(values)):
        rows = np.resize(values, (m, k))
        assert _array_text(rows) == oracle(rows)
        # one entry at the boundary among short ones: padding is per entry
        for x in values:
            a = np.zeros((3, k), dtype=dtype)
            a[1, k - 1] = x
            assert _array_text(a) == oracle(a)


def test_negative_entry_is_refused_in_one_line():
    a = np.array([[0, 1], [-3, 2]], dtype=np.int32)
    with pytest.raises(ValueError) as info:
        json_text({"incidence": a})
    assert "\n" not in str(info.value)


def test_document_with_an_array_matches_its_list_form():
    a = np.arange(24, dtype=np.int32).reshape(12, 2) * 7
    doc = {"points": ["x:0", "y:\u00e9"], "incidence": a, "tags": {"b": [1, None], "a": "q"},
           "config": {"argv": ["build"], "seed": 0}}
    lists = {**doc, "incidence": a.tolist()}
    whole = json.dumps(lists, sort_keys=True, separators=(",", ":")) + "\n"
    assert json_text(doc) == json_text(lists) == whole
    assert json.loads(json_text(doc))["incidence"] == a.tolist()


def test_documents_without_an_array_match_one_dumps():
    for doc in ({}, {"a": []}, {"z": 1, "b": {"y": [1.5, True], "x": "\u00e9\n"}, "c": None}):
        assert json_text(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
