import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from splitpack import Instance, Packing
from splitpack.core import parse_rational, too_many_digits
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


def test_save_packing_round_trip(tmp_path):
    # the writer takes what the reader takes: parts of up to
    # MAX_NUMERAL_DIGITS digits, also in a bin whose text has more
    long_ok = F(1, 10**998 + 1)  # 1 + 999 digits
    many = [(i, F(123456, 999999 + i)) for i in range(200)]
    packing = Packing.build([[(0, F(1, 2))], [(1, long_ok)], many])
    path = tmp_path / "packing.json"
    spio.save_packing(str(path), packing)
    assert path.read_text(encoding="utf-8") == spio.dumps_packing(packing)
    assert spio.load_packing(str(path)) == packing


def test_save_packing_refuses_a_part_the_reader_refuses(tmp_path):
    # one digit more, which the reader refuses: dumps_packing names the bin,
    # and save_packing raises before it opens the file
    too_long = F(1, 10**999 + 1)  # 1 + 1000 digits
    with pytest.raises(spio.ParseError):
        spio.packing_from_json(_bins_doc([str(too_long)]))
    packing = Packing.build([[(0, F(1, 2))], [(1, F(1, 3)), (2, too_long)]])
    message = "packing needs a part of more than 1000 digits (bin 1)"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        spio.dumps_packing(packing)
    path = tmp_path / "packing.json"
    with pytest.raises(ValueError, match=re.escape(message)):
        spio.save_packing(str(path), packing)
    assert not path.exists()


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
        '{"bins": {}}',
        '{"bins": [{}]}',
        '{"bins": [], "labels": [1]}',
        # past the interpreter's recursion limit and its int-string limit
        "[" * 200000,
        '{"k": 1' + "0" * 5000,
    ],
)
def test_parse_errors(text):
    with pytest.raises(spio.ParseError):
        try:
            spio.loads_instance(text)
        finally:
            # whichever document type it resembles must still reject it
            spio.loads_packing(text)


@pytest.mark.parametrize("load", [spio.load_instance, spio.load_packing])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, load):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(spio.ParseError, match="^not UTF-8: "):
        load(str(path))


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
    # or, where a part has more digits than the reader takes, refuses the
    # first bin that holds one
    packing = Packing(
        tuple(tuple(entries) for entries, _ in rows),
        tuple(label for _, label in rows),
    )
    unreadable = [
        b
        for b, entries in enumerate(packing.bins)
        if any(too_many_digits(str(part)) for _, part in entries)
    ]
    if unreadable:
        with pytest.raises(ValueError, match=rf"\(bin {unreadable[0]}\)$"):
            spio.dumps_packing(packing)
    else:
        assert spio.dumps_packing(packing) == _json_reference(packing)


@pytest.mark.parametrize(
    "packing",
    [
        Packing((), ()),
        Packing(((), ((0, F(1, 2)),), ()), ("", "a", "b")),
        Packing(
            tuple(((i, F(1, 3)),) for i in range(7)),
            ('say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
             "café", "漢字", "\U0001f600", "\ud800"),
        ),
        # parts of 1000 digits, the most the reader takes
        Packing(
            (((0, F(10**499 + 7, 10**499)), (1, F(-(10**998), 3))),), ("big",)
        ),
    ],
    ids=["empty", "empty-bins", "escaped-labels", "1000-digit-parts"],
)
def test_dumps_packing_matches_json_module_fixed(packing):
    assert spio.dumps_packing(packing) == _json_reference(packing)


def _many_runs_packing():
    # about 600 bins of 0..5 entries, more than two of the writer's runs,
    # with labels that need escaping
    rng = random.Random(20261019)
    labels = ['say "hi"', "back\\slash", "tab\tnew\nline", "café", "\U0001f600", "nf"]
    bins = []
    for _ in range(601):
        items = sorted(rng.sample(range(-3, 2000), rng.randint(0, 5)))
        parts = [F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4)) for _ in items]
        bins.append(tuple(zip(items, parts)))
    return Packing(tuple(bins), tuple(rng.choice(labels) for _ in bins))


def test_dumps_packing_matches_json_module_over_many_runs():
    packing = _many_runs_packing()
    assert len(packing.bins) > 2 * spio._RUN
    assert {len(entries) for entries in packing.bins} == {0, 1, 2, 3, 4, 5}
    assert spio.dumps_packing(packing) == _json_reference(packing)


def test_unreadable_part_in_a_later_run_names_its_bin(tmp_path):
    # a part of 1001 digits in bin 517, past the first two runs; one of
    # 1000 digits in an earlier bin is readable and passes
    packing = _many_runs_packing()
    assert 517 > 2 * spio._RUN
    bins = [list(entries) for entries in packing.bins]
    bins[3] = [(0, F(10**999 + 7, 1))]  # 1000 digits
    bins[517] = bins[517] + [(2001, F(-(10**1000) - 1, 1))]  # 1001 digits
    bins[560] = [(0, F(1, 10**1000))]
    packing = Packing(tuple(map(tuple, bins)), packing.labels)
    message = "packing needs a part of more than 1000 digits (bin 517)"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        spio.dumps_packing(packing)
    path = tmp_path / "packing.json"
    with pytest.raises(ValueError, match=re.escape(message)):
        spio.save_packing(str(path), packing)
    assert not path.exists()


class _CountedStr(F):
    """A Fraction that counts the times it is rendered."""

    renders = 0

    def __str__(self):
        _CountedStr.renders += 1
        return super().__str__()


def test_a_shared_part_object_is_rendered_once_per_call():
    # one part object in every bin of three runs, beside distinct parts: the
    # bytes are the json module's, and the shared object is rendered once
    shared = _CountedStr(3, 7)
    packing = _many_runs_packing()
    bins = [((-5, shared),) + entries for entries in packing.bins]
    packing = Packing(tuple(bins), packing.labels)
    _CountedStr.renders = 0
    text = spio.dumps_packing(packing)
    assert _CountedStr.renders == 1
    _CountedStr.renders = 0
    assert text == _json_reference(packing)
    assert _CountedStr.renders == len(bins)


def test_a_shared_unreadable_part_names_its_first_bin():
    # one refused part object in bins 300 and 517 and an equal one in bin
    # 400: the first bin holding either is named
    packing = _many_runs_packing()
    bins = [list(entries) for entries in packing.bins]
    shared = F(-(10**1000) - 1, 1)
    for b in (300, 517):
        bins[b].append((2001, shared))
    bins[400].append((2001, F(-(10**1000) - 1, 1)))
    packing = Packing(tuple(map(tuple, bins)), packing.labels)
    message = "packing needs a part of more than 1000 digits (bin 300)"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        spio.dumps_packing(packing)


# A reader parses each distinct numeral string once per document; these
# cases pin that the errors, their bin indices and the values are those of
# parsing every numeral on its own.


def _bins_doc(parts):
    return {"bins": [[{"item": i, "part": p}] for i, p in enumerate(parts)]}


@pytest.mark.parametrize(
    "parts, message",
    [
        (["1/2", "1/x", "1/x"], "bin 1: not a rational: '1/x'"),
        (["1/2", "1/0", "1/2", "1/0"], "bin 1: not a rational: '1/0'"),
        (
            ["1/2", "1" * 1001, "1" * 1001],
            "bin 1: rational '11111111111111111111'... has more than 1000 digits",
        ),
        (["1/2", "1/2", "1e5000", "1e5000"],
         "bin 2: rational '1e5000' has a decimal exponent above 1000 in magnitude"),
    ],
    ids=["malformed", "zero-denominator", "too-many-digits", "huge-exponent"],
)
def test_repeated_bad_numeral_fails_at_its_first_bin(parts, message):
    with pytest.raises(spio.ParseError) as exc:
        spio.packing_from_json(_bins_doc(parts))
    assert str(exc.value) == message


def test_repeated_bad_size_fails_with_its_message():
    with pytest.raises(spio.ParseError) as exc:
        spio.instance_from_json({"k": 2, "items": ["1/2", "abc", "abc"]})
    assert str(exc.value) == "not a rational: 'abc'"


@pytest.mark.parametrize("value", [1, True, None, 0.5, ["1/2"], {"p": 1}])
def test_non_string_numeral_is_rejected_beside_repeated_strings(value):
    with pytest.raises(spio.ParseError) as exc:
        spio.packing_from_json(_bins_doc(["1/2", "1/2", value, "1/2"]))
    assert str(exc.value) == f"bin 2: expected a rational as string, got {value!r}"
    with pytest.raises(spio.ParseError) as exc:
        spio.instance_from_json({"k": 2, "items": ["1/2", value, "1/2"]})
    assert str(exc.value) == f"expected a rational as string, got {value!r}"


def test_repeated_numerals_load_equal_values():
    inst = spio.instance_from_json(
        {"k": 2, "items": ["1/3", "2/6", "1/3", " 1/3", "0.5", "1/2", "0.5"]}
    )
    assert inst.sizes == (F(1, 3),) * 4 + (F(1, 2),) * 3
    packing = spio.packing_from_json(
        {"bins": [[{"item": 0, "part": "1/3"}, {"item": 1, "part": "1/3"}],
                  [{"item": 0, "part": "1/3"}, {"item": 2, "part": "2/6"}]]}
    )
    assert packing.bins == (((0, F(1, 3)), (1, F(1, 3))), ((0, F(1, 3)), (2, F(1, 3))))


_NUMERALS = ["1/3", "2/6", "0.25", "1/4", "7", " 5/12 ", "3e-1", "10/4"]


@given(
    rows=st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_NUMERALS)), max_size=3),
        max_size=8,
    )
)
def test_packing_with_repeated_numerals_matches_parsing_each(rows):
    doc = {"bins": [[{"item": i, "part": p} for i, p in row] for row in rows]}
    expected = Packing.build(
        [[(i, parse_rational(p)) for i, p in row] for row in rows],
        ["bin"] * len(rows),
    )
    assert spio.packing_from_json(doc) == expected
