"""JSON file formats for instances and packings.

Instance: {"k": int, "items": ["p/q" | "decimal", ...]}
Packing:  {"bins": [[{"item": id, "part": "p/q"}, ...], ...], "labels": [...]}

Sizes travel as strings so exactness survives serialization; every rational
is rendered in lowest terms. A reader parses each distinct numeral string
once per document: instances and packings repeat a few values many times.
The packing writer prints ``json.dumps``'s ``indent=2`` layout itself, a run
of a few hundred bins per ``%`` format call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
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


# One bin entry in the ``json.dumps(..., indent=2)`` layout, a ``%`` format
# over the item id and the part's text.
_ENTRY = '      {\n        "item": %s,\n        "part": "%s"\n      }'

# Bins rendered per ``%`` call: one call over the whole packing is as fast,
# but holds every id and part string at once.
_RUN = 256


def _bin_layout(m: int) -> str:
    """The ``%`` format of a bin of m entries, indented as in a packing."""
    if not m:
        return "    []"
    return "    [\n" + ",\n".join([_ENTRY] * m) + "\n    ]"


def dumps_packing(packing: Packing) -> str:
    """The packing in exactly ``json.dumps``'s ``indent=2`` layout, written
    directly: a rendered rational needs no escaping, and each distinct label
    is escaped once by ``json.dumps``.

    Each bin of m entries is rendered from one layout per m, built once per
    call; the bins are formatted ``_RUN`` at a time, by one ``%`` over the
    run's item ids (``%s``, so ``str``) and part strings, and the document
    is one join of the runs. Solvers share one part object among many
    entries, so each distinct part object is rendered once per call, keyed
    by its ``id`` while the packing holds it.

    A part with more digits than ``parse_rational`` accepts
    (``core.too_many_digits``, consulted once per rendered part) raises
    ``ValueError`` naming its bin, the first such, so nothing is written
    that the reader refuses."""
    bins = packing.bins
    if not bins:
        return '{\n  "bins": [],\n  "labels": []\n}\n'
    layouts = {m: _bin_layout(m) for m in set(map(len, bins))}
    texts: dict[int, str] = {}
    runs = []
    for start in range(0, len(bins), _RUN):
        run = bins[start : start + _RUN]
        # item, part, item, part, ... with each part as its string
        flat = list(chain.from_iterable(chain.from_iterable(run)))
        parts = []
        for part in flat[1::2]:
            text = texts.get(id(part))
            if text is None:
                text = texts[id(part)] = str(part)
                if too_many_digits(text):
                    # the part's first entry: no earlier part was refused
                    b = next(
                        b
                        for b, entries in enumerate(run, start)
                        if any(p is part for _, p in entries)
                    )
                    raise ValueError(
                        "packing needs a part of more than "
                        f"{MAX_NUMERAL_DIGITS} digits (bin {b})"
                    )
            parts.append(text)
        flat[1::2] = parts
        # every run but the first opens with the separator from the run before
        layout = ",\n".join([layouts[len(e)] for e in run])
        runs.append((",\n" + layout if start else layout) % tuple(flat))
    quoted = {label: "    " + json.dumps(label) for label in set(packing.labels)}
    labels = ",\n".join(map(quoted.__getitem__, packing.labels))
    return "".join(
        ['{\n  "bins": [\n', *runs, '\n  ],\n  "labels": [\n', labels, "\n  ]\n}\n"]
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
