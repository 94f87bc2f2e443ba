"""Every file the package reads, writes or deletes, and checked reads for its
little-endian binary files: each declared size is checked against the bytes
left before anything is read.  A path the locale cannot encode is opened
by its UTF-8 bytes.  Every binary file opens with one frame, which
write_frame writes and read_frame checks: a 4-byte magic, then the uint32
format version and the format's uint32 shape fields."""

from __future__ import annotations

import io
import math
import os

import numpy as np

from .errors import EmoverifyError, FormatError


def read_exact(fp, count: int, what: str) -> bytes:
    here = fp.tell()
    left = fp.seek(0, 2) - here
    fp.seek(here)
    if count > left:
        raise FormatError(f"truncated {what} file: {count} bytes declared, {left} left")
    return fp.read(count)


def read_array(fp, shape: tuple[int, ...], what: str, dtype: str = "<f8") -> np.ndarray:
    count = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(read_exact(fp, count, what), dtype=dtype).reshape(shape).copy()


def write_frame(fp, magic: bytes, version: int, fields) -> None:
    fp.write(magic)
    fp.write(np.array([version, *fields], dtype="<u4").tobytes())


def read_frame(fp, magic: bytes, version: int, n_fields: int, what: str) -> tuple[int, ...]:
    """The n_fields shape fields after a checked magic and version, as Python
    ints, so size arithmetic cannot wrap."""
    found = read_exact(fp, len(magic), what)
    if found != magic:
        raise FormatError(f"bad {what} magic {found!r}")
    stored, *fields = (int(v) for v in read_array(fp, (n_fields + 1,), what, dtype="<u4"))
    if stored != version:
        raise FormatError(f"unsupported {what} version {stored}")
    return tuple(fields)


def _os_path(path):
    """path itself, or its UTF-8 bytes (the manifest's encoding) where the
    file system encoding cannot hold it, as under the C locale."""
    try:
        os.fsencode(path)
        return path
    except UnicodeEncodeError:
        return os.fspath(path).encode("utf-8", "surrogateescape")


def exists(path) -> bool:
    return os.path.exists(_os_path(path))


def remove(path) -> None:
    """Delete path; a path that does not exist is left as it is."""
    try:
        os.remove(_os_path(path))
    except FileNotFoundError:
        pass


def read_file(path, read):
    """read(fp) over the file opened in binary; an EmoverifyError it raises
    is raised again with its type and the path named."""
    with open(_os_path(path), "rb") as fp:
        try:
            return read(fp)
        except EmoverifyError as exc:
            raise type(exc)(f"{path}: {exc}") from None


def write_file(path, write) -> None:
    """write(fp) into memory, then the bytes to a temporary sibling that replaces path.

    path's directory is created if it is missing, after write succeeds.
    path holds its old bytes or all the new ones, never a part: if write
    or the file write fails, path is left as it was and no temporary file
    remains.
    """
    buf = io.BytesIO()
    write(buf)
    target = os.fsencode(_os_path(path))
    os.makedirs(os.path.dirname(target) or b".", exist_ok=True)
    temporary = target + b".tmp"
    try:
        with open(temporary, "wb") as fp:
            fp.write(buf.getvalue())
        os.replace(temporary, target)
    except BaseException:
        remove(temporary)
        raise


def write_text(path, text: str) -> None:
    """text to path as UTF-8 with the LF line ends it holds, whatever the locale."""
    write_file(path, lambda fp: fp.write(text.encode("utf-8")))
