"""Crash-safe file output shared by the CLI and the search checkpoint,
and the integer check that JSON input is validated with."""

import os


def is_int(x):
    """True for a plain integer; bools and floats are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def atomic_write(path, text):
    """Replace path with text in one step: readers, and a rerun after the
    writer is killed, see either the old content or the new, never a
    partial file."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
