"""Crash-safe file output in one JSON layout and the one JSON file reader,
shared by the CLI and the search checkpoint, and the integer check that
JSON input is validated with."""

import contextlib
import json
import os

import numpy as np

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def is_int(x):
    """True for a plain integer; bools and floats are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_json(path):
    """The JSON document in the file at path; ValueError, as for malformed
    JSON, when it nests too deeply to parse.  A top-level "incidence" in
    the compact layout json_text writes comes back as an (m, 2) int64
    array (see _with_pair_array); every other value is json.loads's."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = _with_pair_array(text)
        return json.loads(text) if doc is None else doc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


_INCIDENCE = '"incidence":[['
# Spans shorter than this, about 60 incidences, go to json.loads: below
# it the numpy calls' fixed cost is more than the lists they save.
_SHORT_SPAN = 512


def _with_pair_array(text):
    """The document in text with its top-level "incidence" read by numpy,
    or None, leaving the whole text to json.loads, unless that value is
    m >= 1 pairs in the exact grammar "[[" a "," b ( "],[" a "," b )* "]]",
    each entry 1 to 18 digits with no leading zero, in a span of at least
    _SHORT_SPAN bytes.

    The rest of the text goes to json.loads with NaN in place of the
    span; the array is used only when that NaN is the document's only
    constant and comes back as its top-level "incidence", so a nested or
    repeated key, a span inside a string, or text json.loads refuses all
    fall back.  The first key found right after a "{" other than the
    document's first byte is nested, as in checkpoints: those are refused
    before any parse."""
    start = text.find(_INCIDENCE)
    if start < 1 or text[start - 1] != ("{" if start == 1 else ","):
        return None
    start += len(_INCIDENCE) - 2
    end = text.find("]]", start) + 2
    pairs = _pair_span(text, start, end) if end - start >= _SHORT_SPAN else None
    if pairs is None:
        return None
    marks = []

    def mark(name):  # NaN or ±Infinity: a fresh object for each
        marks.append(object())
        return marks[-1]

    try:
        doc = json.loads(text[:start] + "NaN" + text[end:], parse_constant=mark)
    except (ValueError, RecursionError):
        return None
    if len(marks) != 1 or not isinstance(doc, dict) or doc.get("incidence") is not marks[0]:
        return None
    doc["incidence"] = pairs
    return doc


def _pair_span(text, start, end):
    """The (m, 2) int64 array that text[start:end], a span "[[...]]",
    spells in _with_pair_array's grammar, or None.  The bytes outside the
    digits must be the 4m + 1 separators, in order, each entry between
    the two around it; then the entries are summed digit by digit from
    the right."""
    b = np.frombuffer(text[start:end].encode(), np.uint8)
    seps = np.flatnonzero((b - 48) > 9)  # uint8 arithmetic: bytes below "0" wrap
    m = len(seps) // 4
    if len(seps) != 4 * m + 1 or b[seps].tobytes() != b"[[" + b",],[" * (m - 1) + b",]]":
        return None
    # row i: its "[", its ",", its "]" and the "," or "]" that follows
    rows = seps[1:].reshape(m, 4)
    ends = rows[:, 1:3].ravel()  # the byte after each entry
    lengths = ends - rows[:, :2].ravel() - 1
    if ((rows[:, 3] - rows[:, 2] != 1).any() or (rows[1:, 0] - rows[:-1, 3] != 1).any()
            or lengths.min() < 1 or lengths.max() > 18
            or ((b[ends - lengths] == 48) & (lengths > 1)).any()):
        return None
    pairs = np.zeros(2 * m, dtype=np.int64)
    # Past an entry's length the index may drop below 0: it wraps to a
    # byte of the span, which the mask zeroes.
    for j in range(1, int(lengths.max()) + 1):
        pairs += ((b[ends - j] - 48) * (lengths >= j)).astype(np.int64) * 10 ** (j - 1)
    return pairs.reshape(m, 2)


def json_text(doc):
    """doc, a dict with string keys, as compact JSON: keys sorted, no spaces,
    one trailing newline, no cycle check (every doc is a tree just built),
    and an integer array value as json.dumps writes its tolist()."""
    return "{" + ",".join(
        _encode(k) + ":" + (_array_text(v) if isinstance(v, np.ndarray) else _encode(v))
        for k, v in sorted(doc.items())) + "}\n"


def _array_text(a):
    """Compact JSON of an (m, k) array of non-negative integers, k >= 1: row i
    of an (m, k (w + 1) + 2) byte table is "[", each entry right-aligned in w
    NUL-padded bytes then "," ("]" after the last), and ","; a mask drops NULs."""
    m, k = a.shape
    if a.size and a.min() < 0:
        raise ValueError("an array is written to JSON from non-negative integers only")
    w = len(str(a.max())) if a.size else 1
    text = np.zeros((m, k * (w + 1) + 2), dtype=np.uint8)
    ends = np.arange(1, k + 1) * (w + 1)  # the byte after each entry
    text[:, 0], text[:, ends], text[:, ends[-1]], text[:, -1] = b"[,],"
    for j in range(1, w + 1):  # digit j from the right; 0 has one digit
        text[:, ends - j] = np.where((a > 0) | (j == 1), a % 10 + ord("0"), 0)
        a = a // 10
    return "[" + text[text != 0].tobytes()[:-1].decode() + "]"


def atomic_write(path, text):
    """Replace path with text in one step: readers, and a rerun after the
    writer is killed, see either the old content or the new, never a
    partial file.  A failed write removes its temporary file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, str(path)) from None
