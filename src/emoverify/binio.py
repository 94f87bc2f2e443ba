"""Checked reads for the little-endian binary files: every declared size is
checked against the bytes left before anything is read."""

from __future__ import annotations

import math

import numpy as np

from .errors import FormatError


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


def read_header(fp, n_fields: int, what: str) -> tuple[int, ...]:
    """uint32 header fields as Python ints, so size arithmetic cannot wrap."""
    return tuple(int(v) for v in read_array(fp, (n_fields,), what, dtype="<u4"))


def read_file(path, read):
    """read(fp) over the opened file; a FormatError names the path."""
    with open(path, "rb") as fp:
        try:
            return read(fp)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
