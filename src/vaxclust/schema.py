"""JSON documents checked against the dataclass fields they are read into.

A dataclass is the only field list of its record: :func:`check_fields`
takes the keys from its fields and each value's JSON type from the field's
annotation (a string, as annotations are postponed), looked up in
:data:`JSON_TYPES`. A bool is no int, an int is a float if a finite double
holds it, and a tuple or array arrives as a list.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import fields


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_split(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and is_int(value[0]) and is_number(value[1])


def _is_category_stats(value) -> bool:
    """{"<category id>": [count, [sum per component]]}"""
    return isinstance(value, dict) and all(
        re.fullmatch(r"-?[0-9]{1,18}", key)
        and isinstance(entry, list)
        and len(entry) == 2
        and is_int(entry[0])
        and _list_of(is_number)(entry[1])
        for key, entry in value.items()
    )


JSON_TYPES = {
    "int": is_int,
    "float": is_number,
    "bool": lambda v: isinstance(v, bool),
    "str": _is_str,
    "str | None": lambda v: v is None or _is_str(v),
    "dict": lambda v: isinstance(v, dict),
    "list[dict]": _list_of(lambda v: isinstance(v, dict)),
    "list[str]": _list_of(_is_str),
    "list[int]": _list_of(is_int),
    "list[list[int]]": _list_of(_list_of(is_int)),
    "list[list[float]]": _list_of(_list_of(is_number)),
    "tuple[int, ...]": _list_of(is_int),
    "tuple[str, ...]": _list_of(_is_str),
    "tuple[float, ...]": _list_of(is_number),
    "np.ndarray": _list_of(is_number),
    "tuple[tuple[float, ...], ...]": _list_of(_list_of(is_number)),
    "tuple[tuple[int, float], ...]": _list_of(_is_split),
    "tuple[dict[int, tuple[int, tuple[float, ...]]], ...]": _list_of(_is_category_stats),
}


def read_object(data: str | bytes, error, what: str) -> dict:
    """The JSON object in ``data``, UTF-8 bytes whose leading byte-order mark
    is skipped, or text; ``error`` if the bytes are not UTF-8, the text is
    not JSON, nests deeper than the decoder goes, or holds no object."""
    try:
        doc = json.loads(data.decode("utf-8-sig") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise error(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} file must hold a JSON object")
    return doc


def check_fields(cls, doc, error, where: str, nested=frozenset()) -> None:
    """Raise ``error`` unless ``doc`` is a JSON object holding exactly the
    fields of dataclass ``cls``, each of its field's JSON type.

    The values of the ``nested`` fields, records of their own, are left to
    the caller.
    """
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object")
    annotations = {f.name: f.type for f in fields(cls)}
    missing = annotations.keys() - doc.keys()
    if missing:
        raise error(f"{where} lacks key(s) {sorted(missing)}")
    unknown = doc.keys() - annotations.keys()
    if unknown:
        raise error(f"{where} has unknown key(s) {sorted(unknown)}")
    for name, annotation in annotations.items():
        if name not in nested and not JSON_TYPES[annotation](doc[name]):
            raise error(f"{where} key {name!r} must be {annotation}, got {doc[name]!r:.80}")
