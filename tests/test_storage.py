"""The JSON writer: integer arrays are written as json.dumps writes lists.
The reader: read_json gives json.load's document, or raises its error,
with a compact top-level incidence read as an array."""

import json
import random

import numpy as np
import pytest

import gainquad.storage as storage
from gainquad.cli import main
from gainquad.storage import _array_text, json_text, read_json

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


# -- the reader ---------------------------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Files as the CLI writes them: `build ag2 q --with-gains -o` for
    q = 2, 3, 5, 11, the base and gains q = 3 emits, and a search's
    checkpoint, report and class file."""
    d = tmp_path_factory.mktemp("written")
    out = {name: d / f"{name}.json" for name in
           ("m2", "m3", "m5", "m11", "base3", "gains3", "ck", "report", "report.class000")}
    for q in (2, 3, 5, 11):
        emit = ["--emit-base", out["base3"], "--emit-gains", out["gains3"]] if q == 3 else []
        assert main(map(str, ["build", "ag2", q, "--with-gains", "-o", out[f"m{q}"], *emit])) == 0
    assert main(map(str, ["search", "--base", "ag2:2", "--group", "z:2",
                          "--checkpoint", out["ck"], "--report", out["report"]])) == 0
    return out


def json_load(path):
    """json.load's document, or the exception it raised."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return exc


def read_as_json_load(path):
    """read_json(path), checked against json.load: the same document, in
    the same key order and types, incidence compared by tolist(); or the
    same exception with the same message, then None."""
    expected = json_load(path)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            read_json(path)
        assert str(info.value) == str(expected)
        return None
    doc = read_json(path)
    plain = doc
    if isinstance(doc, dict) and isinstance(doc.get("incidence"), np.ndarray):
        assert doc["incidence"].dtype == np.int64 and doc["incidence"].shape[1:] == (2,)
        plain = dict(doc, incidence=doc["incidence"].tolist())
    assert plain == expected and json.dumps(plain) == json.dumps(expected)
    return doc


def count_loads(monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    return calls


@pytest.mark.parametrize("name", ["m3", "m5", "m11"])
def test_written_structure_files_read_their_incidence_as_an_array(files, name, monkeypatch):
    calls = count_loads(monkeypatch)
    doc = read_as_json_load(files[name])
    assert isinstance(doc["incidence"], np.ndarray) and len(calls) == 2  # and json.load's


# short incidences (32, 36 and 12 pairs), none, and ones nested in the
# checkpoint's and report's representatives
@pytest.mark.parametrize("name", ["m2", "base3", "report.class000", "gains3", "ck", "report"])
def test_other_written_files_are_plain_and_parsed_once(files, name, monkeypatch):
    calls = count_loads(monkeypatch)
    read_as_json_load(files[name])  # whose json.dumps refuses an array
    assert len(calls) == 2  # one of them json.load's


def test_a_long_incidence_first_in_a_nested_object_is_parsed_once(files, tmp_path, monkeypatch):
    text = files["m3"].read_text()
    start, end = _span(text)
    path = tmp_path / "ck.json"
    path.write_text('{"representatives":[{"structure":{"incidence":' + text[start:end] + "}}]}")
    calls = count_loads(monkeypatch)
    read_as_json_load(path)
    assert len(calls) == 2


def _span(text):
    start = text.index('"incidence":') + len('"incidence":')
    return start, text.index("]]", start) + 2


def _with_incidence(text, value):
    start, end = _span(text)
    return text[:start] + value + text[end:]


def _with_rows(text, rows):
    """text with rows put ahead of its incidence's first row, so that the
    span stays long enough for numpy to read."""
    start, _ = _span(text)
    return text[:start + 1] + rows + "," + text[start + 1:]


def _variants(text):
    """Texts around the compact m3 document text, each named."""
    doc = json.loads(text)
    start, end = _span(text)
    span = text[start:end]
    lists = {k: doc[k] for k in ("points", "lines", "incidence")}
    out = {
        "write-structure": json.dumps(lists, sort_keys=True, separators=(",", ":")),
        "indent-1": json.dumps(doc, indent=1),
        "indent-1-crlf": json.dumps(doc, indent=1).replace("\n", "\r\n"),
        "crlf-end": text[:-1] + "\r\n",
        "nested-in-config": json.dumps({**doc, "config": {"incidence": [[1, 2]]}},
                                       sort_keys=True, separators=(",", ":")),
        "nested-after-a-key": json.dumps({**doc, "config": {"a": 0, "incidence": lists["incidence"]}},
                                         sort_keys=True, separators=(",", ":")),
        "nested-in-tags-first": json.dumps({"tags": {**doc["tags"], "incidence": [[3, 4]]},
                                            **doc}, separators=(",", ":")),
        "nested-only": '{"x":{"k":0,"incidence":' + span + '},"y":0}',
        "escaped-key": '{"a\\"incidence":' + span + ',"incidence":0}',
        "in-a-string": '{"a":"\\"incidence\\":' + span + '","incidence":NaN}',
        "nan-elsewhere": text[:-2] + ',"z":NaN}\n',
        "infinity-top-level": '{"y":{"k":1,"incidence":' + span + '},"incidence":Infinity}',
        "infinity-first": '{"incidence":Infinity,"y":{"k":1,"incidence":' + span + '}}',
        "duplicate-first": text[:1] + '"incidence":' + span + "," + text[1:],
        "duplicate-last": text[:-2] + ',"incidence":[[9,9]]}\n',
        "duplicate-empty-first": text[:1] + '"incidence":[],' + text[1:],
        "duplicate-empty-last": text[:-2] + ',"incidence":[]}\n',
        "not-an-object": "[" + span + "]",
        "bare-span": span,
    }
    for value in ("[]", "[[1,2]", "[[1,2]],", "[[1,2],[3,4]]]", "[[0,0]]", span[:-1]):
        out[f"value {value[:16]}"] = _with_incidence(text, value)
    for rows in ("[1,2],[3]", "[1,2,3]", "[01,2]", "[-1,2]", "[true,0]", "[1.0,2]", "[1, 2]",
                 " [1,2]", "[1,2] ", "[1e2,2]", "[1,,2]", "[,2]", "[1,2][3,4]", "[1,2]5,[3,4]",
                 "[1,2],7[3,4]", "[1 2]", "[3.4,1]", "[1,2]-[3,4]", "{3,4]", "[]", "[0,0]",
                 "[10,0],[0,10]"):
        out[f"rows {rows}"] = _with_rows(text, rows)
    for value in (10 ** 17, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 20):
        out[f"entry {value}"] = _with_rows(text, f"[0,{value}],[{value},1]")
    return out


def test_reader_matches_json_load_on_every_variant(files, tmp_path):
    text = files["m3"].read_text()
    # the variants whose top-level incidence is the first compact span,
    # and long enough; a repeated key keeps its last value, as json.load does
    fast = {"write-structure", "crlf-end", "duplicate-empty-first", "nested-in-tags-first",
            "rows [0,0]", "rows [10,0],[0,10]", "entry 100000000000000000",
            "entry 999999999999999999"}
    arrays = set()
    for name, variant in _variants(text).items():
        path = tmp_path / "v.json"
        path.write_bytes(variant.encode())
        doc = read_as_json_load(path)
        if isinstance(doc, dict) and isinstance(doc.get("incidence"), np.ndarray):
            arrays.add(name)
    assert arrays == fast


def test_reader_matches_json_load_on_bad_bytes(files, tmp_path):
    raw = files["m2"].read_bytes()
    start, end = _span(raw.decode())
    path = tmp_path / "v.json"
    for variant in (b"\xef\xbb\xbf" + raw, raw[:start + 3] + b"\xff" + raw[start + 3:],
                    raw[:-10] + b"\xff" + raw[-10:], raw[:end + 5] + b"\xc3" + raw[end + 5:],
                    raw.replace(b'"x=0"', b'"x=\xc3\xa9"')):
        path.write_bytes(variant)
        read_as_json_load(path)


def _mutants(raw, rng):
    """Seeded mutants of a compact structure file."""
    start, end = _span(raw.decode())
    digits = [i for i, c in enumerate(raw) if 48 <= c <= 57]
    inside = [i for i in digits if start <= i < end]
    separators = [i for i in range(start, end) if not 48 <= raw[i] <= 57]
    cut = [*rng.sample(range(len(raw)), 40), start, start + 1, end - 1, end, len(raw) - 2]
    out = [raw[:k] for k in cut]
    for c in b"-. e0123456789":
        for i in rng.sample(inside, 5) + rng.sample(digits, 2) + rng.sample(separators, 3):
            out.append(raw[:i] + bytes([c]) + raw[i + 1:])
    deep = b"[" * 100000
    out += [raw[:start] + deep + raw[end:], deep + raw,
            raw[:start] + deep + b"]" * 100000 + raw[end:],
            raw[:start] + b"[" * 400 + raw[start:end] + b"]" * 400 + raw[end:],
            raw[:-2] + b',"z":' + deep + b"]" * 100000 + b"}\n"]  # the span stays readable
    first = raw.index(b"]", start) - 1  # the last digit of the first line entry
    for value in (10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 30):
        out.append(raw[:first] + str(value).encode() + raw[first + 1:])
    out += [raw[:i] + b"\xff" + raw[i:] for i in rng.sample(range(len(raw)), 10)]
    return out


def test_mutated_structure_files_verify_alike_with_and_without_the_fast_path(
        files, tmp_path, monkeypatch, capsys):
    rng = random.Random(7)
    path = tmp_path / "mutant.json"
    seen = set()
    for mutant in _mutants(files["m3"].read_bytes(), rng):
        path.write_bytes(mutant)
        outcomes = []
        for fast in (True, False):
            with monkeypatch.context() as patch:
                if not fast:
                    patch.setattr(storage, "_with_pair_array", lambda text: None)
                rc = main(["verify", str(path), "--as", "gq"])
            captured = capsys.readouterr()
            outcomes.append((rc, captured.out, captured.err))
        assert outcomes[0] == outcomes[1], mutant
        rc, _, err = outcomes[0]
        assert rc != 2 or (err.startswith("error: ") and err.count("\n") == 1), err
        seen.add(rc)
    assert seen == {0, 1, 2}
