"""Exception hierarchy shared across the toolkit, the checks every file reader shares, and the JSON-lines writer."""

import io
import json
import struct
from pathlib import Path


class AvcmdError(Exception):
    """Base class for all toolkit errors."""


class FormatError(AvcmdError):
    """A serialized artifact does not match its wire format."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersionError(FormatError):
    """File carries a version this build cannot read."""


class TruncatedPayloadError(FormatError):
    """File ends before the declared payload is complete."""


class DimensionOverflowError(FormatError):
    """A dimension does not fit the fixed-width wire field."""


class InvalidParameterError(AvcmdError):
    """An argument violates a documented precondition."""


class ConfigError(AvcmdError):
    """Configuration file or value is invalid."""


class DegenerateInputError(AvcmdError):
    """Input is structurally valid but unusable (e.g. single-class labels)."""


class UndefinedMetricError(AvcmdError):
    """A metric's denominator is zero; the value is undefined, not 0."""


class NoInputError(AvcmdError):
    """Fusion was asked to decide with no modality present."""


class ProtocolError(AvcmdError):
    """A session-layer message violates the dialogue protocol."""


class LeakageError(AvcmdError):
    """A sample is listed under two subjects, so it would reach its own training fold."""


class PipelineMismatchError(AvcmdError):
    """Model and encoder artifacts come from different pipelines."""


class SessionDesyncError(AvcmdError):
    """Audio and video streams disagree on the shared frame clock."""


def unpack_header(raw: bytes, header: struct.Struct, magic: bytes, version: int, what: str) -> tuple:
    """The fields after magic and version u16 of a file's header, which must match both."""
    if len(raw) < header.size:
        raise TruncatedPayloadError(f"{what} file shorter than its header")
    got_magic, got_version, *fields = header.unpack_from(raw)
    if got_magic != magic:
        raise BadMagicError(f"bad magic {got_magic!r}")
    if got_version != version:
        raise UnsupportedVersionError(f"{what} version {got_version} not supported")
    return tuple(fields)


def check_payload(size: int, expected: int, what: str) -> None:
    """Raise unless a file of `size` bytes is exactly the `expected` bytes its header declares."""
    if size < expected:
        raise TruncatedPayloadError(f"{what} payload truncated: {size} of {expected} bytes")
    if size > expected:
        raise FormatError(f"{size - expected} bytes after the {what} payload")


def json_field(row: dict, key: str, kind: type, nullable: bool = False):
    """row[key], which must be a `kind` (a bool is not an int here), or None when nullable."""
    value = row[key]
    if value is None and nullable:
        return None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key} must be a {kind.__name__}, not {value!r}")
    return value


def open_text(path, error: type[AvcmdError] = FormatError) -> io.StringIO:
    """A UTF-8 file read as text mode reads it, decoded whole: a byte that is not UTF-8 raises `error` here."""
    try:
        return io.StringIO(Path(path).read_bytes().decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_json_rows(path, what: str, parse) -> list:
    """`parse(row)` for the JSON object on each non-blank line of a JSON-lines file.

    A line that is not a JSON object, or whose fields `parse` rejects (KeyError,
    TypeError, ValueError, InvalidParameterError), raises FormatError naming it.
    """
    out = []
    for lineno, line in enumerate(open_text(path), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise TypeError(f"expected an object, not {row!r}")
            out.append(parse(row))
        except (KeyError, TypeError, ValueError, InvalidParameterError) as exc:
            raise FormatError(f"bad {what} on line {lineno}: {exc}") from None
    return out


def write_json_rows(path, rows) -> None:
    """Write each dict of `rows` as one JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
