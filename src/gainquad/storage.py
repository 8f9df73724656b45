"""Crash-safe file output in one JSON layout, shared by the CLI and the
search checkpoint, and the integer check that JSON input is validated with."""

import contextlib
import json
import os


def is_int(x):
    """True for a plain integer; bools and floats are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_text(doc):
    """doc as compact JSON: keys sorted, no spaces, one trailing newline.
    Every doc is a tree the caller has just built, so the encoder skips
    its cycle bookkeeping, which costs it a dict entry per list."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"


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
