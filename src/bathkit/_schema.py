"""Tiny helpers for reading and writing bathkit documents.

Errors carry a JSON-pointer so callers can report the exact location of a
schema violation.  Readers take a text stream or a path, writers a stream with
``writelines`` or a path; a ``str`` is always a path, never document text.
Every document is written line by line by ``write_lines``: JSON as one line
by ``write_json``, which places its metadata block last, and CSV row by row.
"""

import json
import numbers
import os
import sys

from .errors import SchemaError, ValidationError


def read_text(source) -> str:
    """All text of a stream, or of the UTF-8 file at a path, less one leading BOM."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{_name(source)}: not UTF-8 text ({exc.reason})") from None
    return text.removeprefix("\ufeff")


def read_json(source):
    """Parse the JSON document in a stream or at a path."""
    try:
        return json.loads(read_text(source))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{_name(source)}: invalid JSON: {exc}") from None


def write_lines(sink, lines):
    """Write each line and a newline, through ``writelines``, to a stream or to the
    UTF-8 file at a path with LF endings: a generator of lines is never held whole."""
    if not hasattr(sink, "write"):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            return write_lines(fh, lines)
    sink.writelines(line + "\n" for line in lines)


def write_json(sink, doc: dict, metadata: dict | None = None):
    """Write a JSON document, with ``metadata`` as its last key when given, as one
    line with no spaces and a final newline.

    Without ``indent`` the standard library uses its C encoder; ``python -m
    json.tool`` pretty-prints the result.
    """
    doc = doc if metadata is None else {**doc, "metadata": metadata}
    write_lines(sink, [json.dumps(doc, separators=(",", ":"))])


def _name(source) -> str:
    if isinstance(source, (str, os.PathLike)):
        return os.fspath(source)
    return getattr(source, "name", "<stream>")


def require(obj: dict, key: str, pointer: str):
    """Fetch obj[key], raising a SchemaError pointing at the missing key."""
    if not isinstance(obj, dict):
        raise SchemaError(pointer or "/", f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required key")
    return obj[key]


def is_finite_number(value) -> bool:
    """True for an int or float (not a bool) that is a finite double."""
    # the comparison is False for NaN and exact for ints too large for a float
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_number(obj: dict, key: str, pointer: str) -> float:
    value = require(obj, key, pointer)
    if not is_finite_number(value):
        raise SchemaError(f"{pointer}/{key}", f"expected a finite number, got {value!r}")
    return float(value)


def require_list(obj: dict, key: str, pointer: str) -> list:
    value = require(obj, key, pointer)
    if not isinstance(value, list):
        raise SchemaError(f"{pointer}/{key}", f"expected an array, got {type(value).__name__}")
    return value
