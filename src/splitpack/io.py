"""JSON file formats for instances and packings.

Instance: {"k": int, "items": ["p/q" | "decimal", ...]}
Packing:  {"bins": [[{"item": id, "part": "p/q"}, ...], ...], "labels": [...]}

Sizes travel as strings so exactness survives serialization; every rational
is rendered in lowest terms. A reader parses each distinct numeral string
once per document: instances and packings repeat a few values many times.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable

from .core import (
    DEFAULT_LABEL,
    MAX_NUMERAL_DIGITS,
    Instance,
    Packing,
    brief_repr,
    parse_rational,
    too_many_digits,
)


class ParseError(ValueError):
    """Raised when an instance or packing document is malformed."""


def _numeral_parser() -> Callable[[Any], Fraction]:
    """``parse_rational`` that parses each distinct string once; a value
    that is not a string, or does not parse, raises as it would alone."""
    parsed: dict[str, Fraction] = {}

    def parse(text: Any) -> Fraction:
        if type(text) is not str:
            return parse_rational(text)
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    return parse


def instance_from_json(doc: Any) -> Instance:
    if not isinstance(doc, dict) or "k" not in doc or "items" not in doc:
        raise ParseError("instance document needs 'k' and 'items'")
    k = doc["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParseError(f"'k' must be an integer, got {brief_repr(k)}")
    items = doc["items"]
    if not isinstance(items, list):
        raise ParseError("'items' must be a list of rational strings")
    try:
        parse = _numeral_parser()
        sizes = tuple(map(parse, items))
        return Instance(k=k, sizes=sizes)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def packing_from_json(doc: Any) -> Packing:
    if not isinstance(doc, dict) or "bins" not in doc:
        raise ParseError("packing document needs 'bins'")
    raw_bins = doc["bins"]
    if not isinstance(raw_bins, list):
        raise ParseError("'bins' must be a list of bins")
    parse = _numeral_parser()
    bins = []
    for b, raw in enumerate(raw_bins):
        if not isinstance(raw, list):
            raise ParseError(f"bin {b} must be a list of entries")
        entries = []
        for entry in raw:
            if (
                not isinstance(entry, dict)
                or "item" not in entry
                or "part" not in entry
            ):
                raise ParseError(f"bin {b} has an entry without 'item'/'part'")
            item = entry["item"]
            if not isinstance(item, int) or isinstance(item, bool):
                raise ParseError(
                    f"bin {b} has a non-integer item id {brief_repr(item)}"
                )
            try:
                part = parse(entry["part"])
            except ValueError as exc:
                raise ParseError(f"bin {b}: {exc}") from exc
            entries.append((item, part))
        bins.append(entries)
    labels = doc.get("labels")
    if labels is None:
        labels = [DEFAULT_LABEL] * len(bins)
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError("'labels' must be a list of strings")
    if len(labels) != len(bins):
        raise ParseError(f"{len(bins)} bins but {len(labels)} labels")
    return Packing.build(bins, labels)


def dumps_instance(inst: Instance) -> str:
    doc = {"k": inst.k, "items": [str(s) for s in inst.sizes]}
    return json.dumps(doc, indent=2) + "\n"


# One bin entry in the ``json.dumps(..., indent=2)`` layout.
_ENTRY = '      {{\n        "item": {},\n        "part": "{}"\n      }}'


def _json_list(rows: list[str], indent: str) -> str:
    """A JSON list of already-indented rows, closed at `indent`."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def dumps_packing(packing: Packing) -> str:
    """The packing in exactly ``json.dumps``'s ``indent=2`` layout, written
    directly: a rendered rational needs no escaping, and each distinct label
    is escaped once by ``json.dumps``.

    A part with more digits than ``parse_rational`` accepts
    (``core.too_many_digits``) raises ``ValueError`` naming its bin, so
    nothing is written that the reader refuses. Only a bin whose text
    breaks that rule can hold such a part, so one test per bin is enough
    for every other bin."""
    bins = []
    for b, entries in enumerate(packing.bins):
        text = "    " + _json_list(
            [_ENTRY.format(item, str(part)) for item, part in entries],
            "    ",
        )
        if too_many_digits(text) and any(
            too_many_digits(str(part)) for _, part in entries
        ):
            raise ValueError(
                f"packing needs a part of more than {MAX_NUMERAL_DIGITS} digits "
                f"(bin {b})"
            )
        bins.append(text)
    quoted = {label: json.dumps(label) for label in set(packing.labels)}
    labels = ["    " + quoted[label] for label in packing.labels]
    return (
        '{\n  "bins": ' + _json_list(bins, "  ")
        + ',\n  "labels": ' + _json_list(labels, "  ") + "\n}\n"
    )


def loads_instance(text: str) -> Instance:
    return instance_from_json(_loads(text))


def loads_packing(text: str) -> Packing:
    return packing_from_json(_loads(text))


def _loads(text: str) -> Any:
    """The JSON document in text. Malformed JSON, nesting past the
    interpreter's recursion limit and an integer past its int-string
    conversion limit all raise ``ParseError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise ``ParseError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc


def load_instance(path: str) -> Instance:
    return loads_instance(_read(path))


def load_packing(path: str) -> Packing:
    return loads_packing(_read(path))


def save_instance(path: str, inst: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def save_packing(path: str, packing: Packing) -> None:
    """Write the packing to path; a part that ``dumps_packing`` refuses
    raises before the file is opened, so nothing is written."""
    text = dumps_packing(packing)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
