"""`name = value` text files with `#` comments.

Used for battery parameter presets, synthetic scenario specs and CLI run
configs. Values are parsed as int, float, bool, comma-separated float
tuples, or left as strings.
"""

from __future__ import annotations

from . import InputError


class InvalidFile(InputError):
    """A malformed line, or a key or value the file's reader rejects."""


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        try:
            return tuple(float(p) for p in raw.split(","))
        except ValueError:
            pass
    return raw


def loads(text: str) -> dict:
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidFile(f"line {lineno}: expected `name = value`, got {line!r}")
        key, _, raw = line.partition("=")
        out[key.strip()] = _parse_value(raw)
    return out


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(values: dict, path) -> None:
    """Write numbers as `name = value` lines, each as ``repr(float(v))``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {float(v)!r}\n" for k, v in values.items()))
