"""Atomic text-file writes for every artifact the package saves.

atomic_write writes to a new file beside the target and moves it over the
target with os.replace only once the whole body has been written, so a run
that fails or is interrupted part way leaves the previous file (or no
file) in place, never a truncated one that later loads.  write_csv is the
one CSV writer, so every CSV artifact has one dialect.  same_output says
whether two such writes would land in one file.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager


def _written_through(path) -> bool:
    """Whether path is a device or a pipe, which has no file to replace."""
    return os.path.exists(path) and not os.path.isfile(path)


def same_output(a, b) -> bool:
    """Whether atomic_write to a and to b would replace one file.

    Both paths are resolved first, so a relative path, a symlink and the
    file it points at all name one file.  A device or a pipe, such as
    /dev/null, is written straight through, not replaced, so any number
    of outputs may name it.
    """
    a, b = os.path.realpath(a), os.path.realpath(b)
    return a == b and not _written_through(a)


@contextmanager
def atomic_write(path, *, newline: str | None = None):
    """Open a UTF-8 text file to write in place of path.

    The file is a temporary one in path's directory, created with the mode
    a plain open(path, "w") gives a new file under the umask; it replaces
    path when the block ends, and is removed if the block raises.  Where
    path is a symlink, the file it points at is replaced.  Where path is
    a device or a pipe, such as /dev/null, there is no file to replace,
    and the text goes straight to it.
    """
    path = os.fspath(path)
    if _written_through(path):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    directory, name = os.path.split(path)
    # os.urandom, not secrets: secrets loads OpenSSL, nearly 4 MB of RSS
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write header, then rows, to path through atomic_write: comma
    separated, each line ending in a line feed, None as an empty cell, and
    floats (numpy's included) as their shortest round-trip repr."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
