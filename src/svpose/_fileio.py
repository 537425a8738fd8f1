"""Text and JSON inputs, and atomic file writes: a sibling temp file, then os.replace."""

import json
import os
import tempfile

from .errors import FormatError


def read_text(path):
    """The text in `path`; bytes that are not UTF-8 raise FormatError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e})") from None


def read_json(path, expect_format=None, expect_version=None):
    """The JSON document in `path`, checked against a format and version.

    Text that is not UTF-8 JSON raises FormatError, as does a document
    that is not an object with the expected "format" and "version" keys
    when `expect_format` is given.
    """
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON ({e})") from None
    if expect_format is not None:
        if not isinstance(doc, dict) or doc.get("format") != expect_format:
            raise FormatError(f"{path}: expected a {expect_format} file")
        if doc.get("version") != expect_version:
            raise FormatError(f"{path}: unsupported version {doc.get('version')}")
    return doc


def json_text(doc) -> str:
    """The JSON text every output file holds; NaN and infinity raise ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_bytes_atomic(path, data: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))
