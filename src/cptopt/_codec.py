"""Strict reading of JSON objects into the package's config types."""

from __future__ import annotations

from typing import Any, Iterable


def checked_keys(what: str, data: Any, allowed: Iterable[str]) -> dict:
    """Copy of the JSON object ``data``; raises ValueError on a key outside ``allowed``.

    A misspelled or misnamed key would otherwise fall back to that field's
    default without a word, so the error names the key and the allowed set.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    allowed = sorted(allowed)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )
    return dict(data)
