"""Small file helpers: atomic writes and strict UTF-8 line files."""

import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode="w", encoding="utf-8"):
    """Write to a temp file in the target directory, then rename into place.

    The target never exists half-written; on error the temp file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        if "b" in mode:
            handle = os.fdopen(fd, mode)
        else:
            handle = os.fdopen(fd, mode, encoding=encoding, newline="\n")
        with handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_lines(lines, path):
    """Write each string as one newline-terminated line, atomically."""
    with atomic_write(path) as out:
        for line in lines:
            out.write(line + "\n")


def read_lines(path):
    """Read a UTF-8 text file into a list of lines without trailing newlines.

    Decoding errors are hard errors; silently dropping bytes would corrupt
    line alignment between parallel files.
    """
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").rstrip("\r") for line in handle]
