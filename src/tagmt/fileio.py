"""Small file helpers: atomic writes, strict UTF-8 line files and TSV rows."""

import os
from contextlib import contextmanager

from .errors import MalformedLine


@contextmanager
def atomic_write(path, mode="w"):
    """Write to a temp file in the target directory, then rename into place.

    The target never exists half-written; on error the temp file is removed.
    Text is UTF-8 with ``\n`` line ends. The file gets the mode a plain
    ``open`` would give it: 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp_path = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        if "b" in mode:
            handle = os.fdopen(fd, mode)
        else:
            handle = os.fdopen(fd, mode, encoding="utf-8", newline="\n")
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
    """Read a UTF-8 text file into a list of lines without line endings.

    ``\n``, ``\r\n`` and a lone ``\r`` each end a line, and one leading
    byte-order mark (U+FEFF) is dropped. An undecodable byte raises
    MalformedLine naming the file and the line it sits on; silently dropping
    bytes would corrupt line alignment between parallel files.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_number = _newlines(data[: err.start].decode("utf-8")).count("\n") + 1
        raise MalformedLine(line_number, f"{path} is not valid UTF-8") from None
    lines = _newlines(text.removeprefix("\ufeff")).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _newlines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


def tsv_rows(lines, width):
    """Yield ``(line_number, fields)`` for each non-blank line, split on tabs.

    Line numbers are 1-based over all lines, blank ones included. A line
    with other than ``width`` fields raises MalformedLine.
    """
    for line_number, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise MalformedLine(
                line_number, f"expected {width} tab-separated fields, got {len(fields)}"
            )
        yield line_number, fields
