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
    JSON, when it nests too deeply to parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


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
