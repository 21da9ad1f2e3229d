import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from splitpack import Instance, Packing
from splitpack.core import EMPTY_PACKING
from splitpack import io as spio


def test_instance_round_trip_text():
    inst = Instance(k=2, sizes=(F(3), F(1, 4), F(3, 10)))
    again = spio.loads_instance(spio.dumps_instance(inst))
    assert again == inst


def test_save_instance_round_trip(tmp_path):
    inst = Instance(k=3, sizes=(F(5, 2), F(1, 7), F(1)))
    path = tmp_path / "inst.json"
    spio.save_instance(str(path), inst)
    assert path.read_text(encoding="utf-8") == spio.dumps_instance(inst)
    assert spio.load_instance(str(path)) == inst


def test_instance_accepts_decimals():
    inst = spio.loads_instance('{"k": 2, "items": ["0.3", "3/4", "2"]}')
    assert inst.sizes == (F(3, 10), F(3, 4), F(2))


def test_packing_round_trip_text():
    packing = Packing.build(
        [[(0, F(3, 4)), (1, F(1, 4))], [(2, F(1))]], ["S2a", "S3"]
    )
    again = spio.loads_packing(spio.dumps_packing(packing))
    assert again == packing


def test_packing_labels_default():
    packing = spio.loads_packing('{"bins": [[{"item": 0, "part": "1/2"}]]}')
    assert packing.labels == ("bin",)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "{}",
        '{"k": "2", "items": []}',
        '{"k": 2, "items": "1/2"}',
        '{"k": 2, "items": ["0"]}',
        '{"bins": [[{"item": 0}]]}',
        '{"bins": [[{"item": "0", "part": "1/2"}]]}',
        '{"bins": [], "labels": ["x"]}',
    ],
)
def test_parse_errors(text):
    with pytest.raises(spio.ParseError):
        try:
            spio.loads_instance(text)
        finally:
            # whichever document type it resembles must still reject it
            spio.loads_packing(text)


sizes_st = st.lists(
    st.fractions(min_value=F(1, 30), max_value=F(4), max_denominator=30),
    min_size=0,
    max_size=8,
)


@given(sizes=sizes_st, k=st.integers(2, 5))
def test_instance_round_trip_property(sizes, k):
    inst = Instance(k=k, sizes=tuple(sizes))
    assert spio.loads_instance(spio.dumps_instance(inst)) == inst


@given(
    parts=st.lists(
        st.fractions(min_value=F(1, 20), max_value=F(1, 2), max_denominator=20),
        min_size=1,
        max_size=6,
    )
)
def test_packing_round_trip_property(parts):
    bins = [[(i, p)] for i, p in enumerate(parts)]
    packing = Packing.build(bins, ["bin"] * len(bins))
    assert spio.loads_packing(spio.dumps_packing(packing)) == packing


def _json_reference(packing):
    # the indent=2 layout of the packing document, through the json module
    doc = {
        "bins": [
            [{"item": item, "part": str(part)} for item, part in entries]
            for entries in packing.bins
        ],
        "labels": list(packing.labels),
    }
    return json.dumps(doc, indent=2) + "\n"


_parts_st = st.one_of(
    st.fractions(max_denominator=10**6),
    st.builds(F, st.integers(-(10**999), 10**1000), st.integers(1, 10**1000)),
)
_bins_st = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(-3, 10**6), _parts_st), max_size=4),
        st.text(max_size=8),
    ),
    max_size=6,
)


@given(rows=_bins_st)
def test_dumps_packing_matches_json_module(rows):
    packing = Packing(
        tuple(tuple(entries) for entries, _ in rows),
        tuple(label for _, label in rows),
    )
    assert spio.dumps_packing(packing) == _json_reference(packing)


@pytest.mark.parametrize(
    "packing",
    [
        EMPTY_PACKING,
        Packing(((), ((0, F(1, 2)),), ()), ("", "a", "b")),
        Packing(
            tuple(((i, F(1, 3)),) for i in range(7)),
            ('say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
             "café", "漢字", "\U0001f600", "\ud800"),
        ),
        Packing(
            (((0, F(10**999 + 7, 10**999)), (1, F(-(10**999), 3))),), ("big",)
        ),
    ],
    ids=["empty", "empty-bins", "escaped-labels", "1000-digit-parts"],
)
def test_dumps_packing_matches_json_module_fixed(packing):
    assert spio.dumps_packing(packing) == _json_reference(packing)
