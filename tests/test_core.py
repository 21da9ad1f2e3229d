import dataclasses
import math
import pickle
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_core as ref
from reference_core import scaled_sizes
from splitpack import (
    InternalError,
    InvalidPackingError,
    Instance,
    Packing,
    check_block_inequality,
    core,
    exact_opt,
    feasible_in,
    gen_random,
    io,
    lower_bounds,
    next_fit,
    normalization_violations,
    normalize,
    pack_75,
    parse_rational,
    validate_packing,
)
from splitpack.core import (
    MAX_DECIMAL_EXPONENT,
    MAX_NUMERAL_DIGITS,
    bin_violations,
    brief_repr,
    checked_packing,
    is_acyclic,
    shared_bins,
    size_type,
    too_many_digits,
    unit_sizes,
)
from splitpack.exact import EXACT_LABEL, _upper_bound_packing


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("0.3") == F(3, 10)
    assert parse_rational("3") == F(3)
    assert parse_rational("  5/2 ") == F(5, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "3.5.2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_limits():
    assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
    tiny = F(25, 10 ** (MAX_DECIMAL_EXPONENT + 1))
    assert parse_rational(f"2.5E-{MAX_DECIMAL_EXPONENT}") == tiny
    assert parse_rational("7" * MAX_NUMERAL_DIGITS) == int("7" * MAX_NUMERAL_DIGITS)
    for bad in (
        f"1e{MAX_DECIMAL_EXPONENT + 1}",
        f"1E-{MAX_DECIMAL_EXPONENT + 1}",
        "7" * (MAX_NUMERAL_DIGITS + 1),
        "1/" + "3" * MAX_NUMERAL_DIGITS,
    ):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize(
    "value",
    [10**5000, -(10**5000), [10**5000]],
    ids=["huge-int", "huge-negative-int", "list-of-huge-int"],
)
def test_parse_rational_quotes_an_unprintable_value_briefly(value):
    # repr refuses an int past the interpreter's digit limit
    with pytest.raises(ValueError) as exc:
        parse_rational(value)
    message = str(exc.value)
    assert message.startswith("expected a rational as string")
    assert len(message) < 200


def test_brief_repr_names_what_repr_refuses():
    assert brief_repr(10**5000) == "<int of 16610 bits>"
    assert brief_repr([10**5000]) == "<list>"
    assert brief_repr(10**50) == repr(10**50)


def test_too_many_digits_is_the_parsers_rule():
    # a rendered "p/q" counts the digits of both; signs and the slash do not
    half = MAX_NUMERAL_DIGITS // 2
    fits = ("7" * MAX_NUMERAL_DIGITS, f"-{'1' * half}/{'3' * half}")
    over = ("7" * (MAX_NUMERAL_DIGITS + 1), f"-{'1' * half}/{'3' * (half + 1)}")
    for text in fits:
        assert not too_many_digits(text)
        parse_rational(text)
    for text in over:
        assert too_many_digits(text)
        with pytest.raises(ValueError, match=f"more than {MAX_NUMERAL_DIGITS} digits"):
            parse_rational(text)


@pytest.mark.parametrize(
    "hostile",
    [
        "1e1000000",  # a 3.3M-bit power of ten
        "0.5e-99999999999999999999",
        "1" * 4000,  # below the interpreter's own int-string limit
        "0." + "1" * 10**6,
    ],
)
def test_parse_rational_fails_fast_on_hostile_numerals(hostile):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_rational(hostile)
    assert time.perf_counter() - start < 0.25


# Numeral pieces for the parser's differential test: every form the digit
# fast path takes and the forms it must leave to ``Fraction``.
_NUMERAL_PIECES = [
    "0", "7", "12", "007", "1000", "9" * 30, "-", "+", ".", "5", "e", "E",
    "e-3", "e+2", "_", "1_0", "/", "/0", "/3", "/00", " ", "\t", "\n",
    "\u0661", "\u00b2", "\uff11", "x", "nan", "inf", "", "//",
]


@given(pieces=st.lists(st.sampled_from(_NUMERAL_PIECES), max_size=6))
def test_parse_rational_matches_fraction(pieces):
    text = "".join(pieces)
    try:
        parse_rational(text)
    except ValueError as exc:
        # beyond the exponent bound Fraction would build a huge power of ten
        assume("decimal exponent" not in str(exc))
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert got == expected and type(got) is F


def test_parse_rational_digit_forms():
    assert parse_rational("6/4") == F(3, 2)
    assert parse_rational("0/5") == 0
    assert parse_rational("0012") == 12
    for bad in ("3/0", "0/0", "3/", "/3", "1/2/", "-/2"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    # non-ASCII digits are left to Fraction, which reads them as digits
    assert parse_rational("\u0661/\u0662") == F(1, 2)


def test_decimal_parsing_is_exact():
    # d digits become a power-of-ten denominator, never a float round trip
    assert parse_rational("0.1") == F(1, 10)
    assert parse_rational("0.123456789") == F(123456789, 10**9)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(k=1, sizes=(F(1, 2),))
    with pytest.raises(ValueError):
        Instance(k=2, sizes=(F(0),))
    with pytest.raises(ValueError):
        Instance(k=2, sizes=(F(-1, 2),))
    # a packing needs one label per bin
    with pytest.raises(ValueError, match="^2 bins but 1 labels$"):
        Packing(bins=(((0, F(1)),), ((1, F(1)),)), labels=("bin",))
    inst = Instance(k=2, sizes=(F(3), F(1, 4)))
    assert inst.n == 2 and list(inst.items()) == [(0, F(3)), (1, F(1, 4))]
    # the part count is an attribute, not a field: equality, repr, hashing
    # and replace see k and the sizes only, and replace counts anew
    assert inst.parts_needed == 4
    assert repr(inst) == "Instance(k=2, sizes=(Fraction(3, 1), Fraction(1, 4)))"
    assert hash(inst) == hash(Instance(k=2, sizes=(F(3), F(1, 4))))
    assert dataclasses.replace(inst, sizes=(F(5, 2),)).parts_needed == 3
    assert pickle.loads(pickle.dumps(inst)).parts_needed == 4


def test_instance_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    inst = Instance(k=2, sizes=(half, 3, "3/4"))
    assert inst.sizes == (F(1, 2), F(3), F(3, 4))
    assert inst.sizes[0] is half
    assert all(type(s) is F for s in inst.sizes)
    with pytest.raises(ValueError, match="item 1 has non-positive size -1/3"):
        Instance(k=2, sizes=(half, F(-1, 3)))


# The item classes are size_type brackets: 1 is small, 2 is medium, 3 or
# more is large.
SMALL, MEDIUM, LARGE = 1, 2, 3


def _class_of(size):
    return min(size_type(size), LARGE)


def test_classify_boundaries():
    assert _class_of(F(1, 2)) == SMALL
    assert _class_of(F(1, 2) + F(1, 100)) == MEDIUM
    assert _class_of(F(1)) == MEDIUM
    assert _class_of(F(1) + F(1, 100)) == LARGE


def _classify_fraction(size):
    # the definition: (0, 1/2] small, (1/2, 1] medium, above 1 large
    if size <= F(1, 2):
        return SMALL
    if size <= 1:
        return MEDIUM
    return LARGE


def test_classify_matches_fraction_definition():
    huge = 10**999  # 1000 digits
    sizes = [
        F(1, 2), F(1), F(3, 2), F(2), F(1, 10**30),
        F(huge, 2 * huge), F(huge + 1, 2 * huge), F(huge - 1, 2 * huge),
        F(huge, huge + 1), F(huge + 1, huge), F(huge, 3), F(7, huge),
    ]
    for size in list(sizes):
        for delta in (F(1, 10**6), F(1, huge)):
            sizes += [size + delta, size - delta]
    sizes += [F(num, den) for den in range(1, 13) for num in range(1, 3 * den + 1)]
    sizes = [s for s in sizes if s > 0]
    assert len(sizes) > 200
    for size in sizes:
        assert _class_of(size) == _classify_fraction(size), size
        assert size_type(size) == max(1, math.ceil(2 * size)), size


@given(num=st.integers(1, 10**1000), den=st.integers(1, 10**1000))
def test_classify_matches_fraction_definition_drawn(num, den):
    size = F(num, den)
    assert _class_of(size) == _classify_fraction(size)


def test_size_type_brackets():
    assert size_type(F(1, 3)) == 1
    assert size_type(F(1, 2)) == 1
    assert size_type(F(3, 4)) == 2
    assert size_type(F(1)) == 2
    assert size_type(F(5, 4)) == 3


@pytest.mark.parametrize(
    "size,k,expected",
    [
        (F(3, 10), 2, F(1, 2)),
        (F(5, 2), 2, F(3, 2)),
        (F(2), 3, F(2, 3)),
    ],
)
def test_item_weight(size, k, expected):
    # an item's weight is its ceil(size) parts over the k a bin takes
    assert F(Instance(k=k, sizes=(size,)).parts_needed, k) == expected


@given(
    num=st.integers(1, 400),
    den=st.integers(1, 40),
    bump=st.integers(0, 100),
    k=st.integers(2, 6),
)
def test_item_weight_monotone_and_scales(num, den, bump, k):
    size = F(num, den)
    bigger = size + F(bump, den)
    one = Instance(k=k, sizes=(size,))
    assert one.parts_needed <= Instance(k=k, sizes=(bigger,)).parts_needed
    assert one.parts_needed == math.ceil(size)
    both = Instance(k=k, sizes=(size, bigger))
    assert both.parts_needed == math.ceil(size) + math.ceil(bigger)


def test_validate_packing_accepts_single_item():
    inst = Instance(k=2, sizes=(F(3, 4),))
    packing = Packing.build([[(0, F(3, 4))]])
    assert validate_packing(inst, packing) == []


def test_validate_packing_coverage_failure():
    inst = Instance(k=2, sizes=(F(3, 4),))
    packing = Packing.build([[(0, F(1, 2))]])
    issues = validate_packing(inst, packing)
    assert len(issues) == 1
    assert "item 0 covered 1/2 of 3/4" in issues[0]


def test_validate_packing_cardinality_failure():
    inst = Instance(k=2, sizes=(F(1, 3), F(1, 3), F(1, 3)))
    packing = Packing.build([[(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))]])
    issues = validate_packing(inst, packing)
    assert any("bin 0 has 3 > k=2 parts" in v for v in issues)


def test_validate_packing_capacity_unknown_and_empty():
    inst = Instance(k=2, sizes=(F(3, 4),))
    packing = Packing(
        bins=(((0, F(3, 4)), (5, F(1, 2))), ()),
        labels=("bin", "bin"),
    )
    issues = validate_packing(inst, packing)
    assert any("unknown item" in v for v in issues)
    assert any("capacity" in v for v in issues)
    assert any("empty bin" in v for v in issues)


def test_validate_packing_positivity():
    inst = Instance(k=2, sizes=(F(1, 2),))
    packing = Packing(bins=(((0, F(0)),),), labels=("bin",))
    issues = validate_packing(inst, packing)
    assert any("positivity" in v for v in issues)
    assert any("coverage" in v for v in issues)


def test_bin_violations_in_a_scaled_unit():
    # sizes 1/2, 2/3, 5/6 over the common denominator 6
    inst = Instance(k=2, sizes=(F(1, 2), F(2, 3), F(5, 6)))
    cap, scaled = scaled_sizes(inst.sizes)
    assert (cap, scaled) == (6, [3, 4, 5])
    assert bin_violations(inst, [[(0, 3), (1, 3)], [(1, 1), (2, 5)]], cap, scaled) == []
    faults = {
        "cardinality": [[(0, 3), (1, 2), (2, 1)], [(1, 2), (2, 4)]],
        "positivity": [[(0, 3), (1, 0)], [(1, 4), (2, 5)]],
        "capacity": [[(0, 3), (1, 4)], [(2, 5)]],
        "unknown item": [[(0, 3), (1, 3)], [(1, 1), (2, 5)], [(3, 1)]],
        "coverage": [[(0, 3), (1, 3)], [(1, 1), (2, 4)]],
    }
    for kind, bins in faults.items():
        issues = bin_violations(inst, bins, cap, scaled)
        assert any(v.startswith(kind) for v in issues), (kind, issues)
    # every fault in one set of bins, each reported
    issues = bin_violations(
        inst, [[(0, 3), (1, 0), (9, 1)], [(1, 4), (2, 3)], []], cap, scaled
    )
    assert issues == [
        "positivity: bin 0 item 1 has non-positive part 0",
        "unknown item: bin 0 references item 9 not in instance",
        "cardinality: bin 0 has 3 > k=2 parts",
        "capacity: bin 1 holds 7 > 6",
        "empty bin: bin 2 has no parts",
        "coverage: item 2 covered 3 of 5",
    ]


def test_bin_violations_scaled_matches_fraction_unit():
    rng = random.Random(7)
    for _ in range(200):
        inst = gen_random(rng.randint(1, 6), rng.choice([2, 3]), "mixed", rng.randrange(2**30))
        cap, scaled = scaled_sizes(inst.sizes)
        bins = [list(entries) for entries in next_fit(inst)[0].bins]
        b = rng.randrange(len(bins))
        item, part = bins[b][0]
        bins[b][0] = (item, part + rng.choice([0, F(-1, cap), F(1, cap), 1]))
        as_ints = [[(i, int(p * cap)) for i, p in entries] for entries in bins]
        # the same violations, only the quantities in them are scaled
        kinds = [v.split(":")[0] for v in bin_violations(inst, bins)]
        assert kinds == [v.split(":")[0] for v in bin_violations(inst, as_ints, cap, scaled)]


def test_duplicate_entry_is_reported():
    # a Packing built directly may list one item twice in a bin; Packing.build
    # would have merged the two parts
    inst = Instance(k=2, sizes=(F(1, 2),))
    packing = Packing((((0, F(1, 4)), (0, F(1, 4))),), ("x",))
    assert validate_packing(inst, packing) == [
        "duplicate: bin 0 lists item 0 more than once"
    ]
    with pytest.raises(InvalidPackingError):
        normalize(inst, packing)
    # the same in a scaled unit, beside an item that is split over two bins
    inst = Instance(k=3, sizes=(F(1, 2), F(3, 4)))
    cap, scaled = scaled_sizes(inst.sizes)
    bins = [[(0, 1), (1, 2), (0, 1)], [(1, 1)]]
    assert bin_violations(inst, bins, cap, scaled) == [
        "duplicate: bin 0 lists item 0 more than once"
    ]


def _mutations(inst, bins, unit, rng):
    """``bins`` with one fault of each kind the validator reports, parts
    changed in steps of ``unit``; no bin lists an item twice."""
    yield [list(entries) for entries in bins]  # unchanged
    b = rng.randrange(len(bins))
    item, part = bins[b][0]

    def with_entry(entry):
        return [
            [entry] + entries[1:] if j == b else list(entries)
            for j, entries in enumerate(bins)
        ]

    yield [list(entries) for entries in bins] + [[]]  # empty bin
    yield with_entry((item, -part))  # negative part
    yield with_entry((item, 0 * part))  # zero part
    yield with_entry((item, part - unit))  # short coverage
    yield with_entry((item, part + unit))  # over-full or over-covered
    yield with_entry((item, part + 1))  # over-full by a whole bin
    yield with_entry((rng.choice([inst.n, inst.n + 5, -1]), part))  # unknown id
    yield [list(entries) for j, entries in enumerate(bins) if j != b]  # uncovered
    present = {i for i, _ in bins[b]}
    others = [i for i in range(inst.n) if i not in present]
    if others:  # over k, and over-covers the added item
        grown = [list(entries) for entries in bins]
        grown[b] += [(i, unit) for i in others[: inst.k]]
        yield grown


def test_bin_violations_match_reference():
    # exactly the original Fraction validator's list, in both units
    rng = random.Random(29)
    checked = 0
    for _ in range(150):
        inst = gen_random(
            rng.randint(1, 8), rng.choice([2, 3]), rng.choice(["mixed", "heavy"]),
            rng.randrange(2**30),
        )
        cap, scaled = scaled_sizes(inst.sizes)
        bins = [list(entries) for entries in next_fit(inst)[0].bins]
        for mutated in _mutations(inst, bins, F(1, cap), rng):
            assert bin_violations(inst, mutated) == ref.bin_violations(inst, mutated)
            as_ints = [[(i, int(p * cap)) for i, p in entries] for entries in mutated]
            assert bin_violations(inst, as_ints, cap, scaled) == ref.bin_violations(
                inst, as_ints, cap, scaled
            )
            checked += 1
    assert checked > 1400


def test_bin_violations_long_bin_stays_small():
    # 10^4 parts alternating 1/6 and 1/10 in one bin: the running sum is kept
    # in lowest terms, so its denominator never grows past 15
    n = 10**4
    sizes = tuple(F(1, 6) if i % 2 else F(1, 10) for i in range(n))
    inst = Instance(k=n, sizes=sizes)
    bins = [list(enumerate(sizes))]
    start = time.perf_counter()
    issues = bin_violations(inst, bins)
    assert time.perf_counter() - start < 0.25
    assert issues == ["capacity: bin 0 holds 4000/3 > 1"]
    assert issues == ref.bin_violations(inst, bins)


def test_messages_quote_huge_values_briefly():
    # the validator and the k = 2 checks quote each value in at most 60
    # characters, however many digits it has
    huge = 10**4000 + 1
    inst = Instance(k=2, sizes=(F(1, 2),))
    for bins in ([[(huge, F(1, 2))]], [[(0, F(huge, 3))]], [[(0, F(-huge, 3))]]):
        issues = validate_packing(inst, Packing.build(bins))
        assert len(issues) == 2 and all(len(line) < 200 for line in issues)
    issues = validate_packing(Instance(k=2, sizes=(F(huge, 3),)), Packing.build([]))
    assert len(issues) == 1 and len(issues[0]) < 200
    wide = Instance(k=huge, sizes=(F(1, 2),))
    empty = Packing.build([])
    for call in (
        lambda: pack_75(wide),
        lambda: normalize(wide, empty),
        lambda: normalization_violations(wide, empty),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert len(str(info.value)) < 200


def test_same_item_parts_merge_on_build():
    packing = Packing.build([[(0, F(1, 4)), (0, F(1, 4))]])
    assert packing.bins == (((0, F(1, 2)),),)
    # parts that are not Fractions are still converted
    packing = Packing.build([[(0, 1)], [(1, F(1, 4)), (1, 1)], [(2, 0.5)]])
    assert packing.bins == (((0, F(1)),), ((1, F(5, 4)),), ((2, F(1, 2)),))
    assert all(type(part) is F for entries in packing.bins for _, part in entries)


def _merged_then_sorted(entries):
    """``Packing.build``'s bin by its definition: convert, merge, sort."""
    merged = {}
    for item, part in entries:
        merged[item] = merged.get(item, F(0)) + F(part)
    return tuple(sorted(merged.items()))


def test_build_matches_merge_then_sort():
    rng = random.Random(11)
    values = [F(1, 3), F(1, 2), F(2, 5), F(7, 4), 1, 2, 0.5, 0.25]
    for _ in range(400):
        bins = []
        for _ in range(rng.randint(0, 6)):
            ids = rng.sample(range(8), rng.randint(0, 4))
            if rng.random() < 0.3 and ids:
                ids.append(rng.choice(ids))  # a repeated id
            order = rng.random()
            if order < 0.4:
                ids.sort()
            elif order < 0.6:
                ids.sort(reverse=True)
            bins.append([(i, rng.choice(values)) for i in ids])
        packing = Packing.build(bins)
        assert packing.bins == tuple(_merged_then_sorted(b) for b in bins)
        assert packing.labels == ("bin",) * len(bins)
        for entries in packing.bins:
            assert type(entries) is tuple
            assert all(type(e) is tuple and type(e[1]) is F for e in entries)
            assert len({i for i, _ in entries}) == len(entries)


def test_build_keeps_an_ordered_bin_of_fractions():
    half, third = F(1, 2), F(1, 3)
    ordered = [(0, half), (3, third)]
    packing = Packing.build([ordered, [], [(2, half)], [(1, third), (1, third)]])
    assert packing.bins == (((0, half), (3, third)), (), ((2, half),), ((1, F(2, 3)),))
    assert all(a is b for a, b in zip(packing.bins[0], ordered))
    assert packing.bins[2][0][1] is half
    # Not ordered: a descending pair, an int part, a list entry.
    for bin_ in ([(3, third), (0, half)], [(0, half), (3, 1)], [[0, half], (3, third)]):
        (entries,) = Packing.build([bin_]).bins
        assert entries == _merged_then_sorted(bin_)
        assert all(type(e) is tuple and type(e[1]) is F for e in entries)
    # An id that is not an int is merged, so it must be hashable.
    with pytest.raises(TypeError, match="unhashable"):
        Packing.build([[([0], half)]])


def test_size_type_in_a_unit():
    rng = random.Random(4)
    for _ in range(500):
        cap = rng.randint(1, 60)
        size = rng.randint(1, 5 * cap)
        assert size_type(size, cap) == size_type(F(size, cap))
        assert size_type(size, cap) == math.ceil(2 * F(size, cap))


@pytest.mark.parametrize(
    "k,sizes,expected",
    [
        (2, (F(3), F(1, 4), F(1, 4), F(1, 4), F(1, 4)), (4, 4, 3, 4)),
        (2, (F(1, 2),), (1, 1, 1, 1)),
        (3, (F(2),) + (F(1, 6),) * 6, (3, 3, 3, 3)),
    ],
)
def test_lower_bounds_examples(k, sizes, expected):
    report = lower_bounds(Instance(k=k, sizes=sizes))
    assert (
        report.size_bound,
        report.weight_bound,
        report.count_bound,
        report.best,
    ) == expected


def test_lower_bounds_match_rational_formulas():
    # the integer bounds against their definitions on Fractions
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(2, 5)
        sizes = [
            F(rng.randint(1, 4 * den), den)
            for den in rng.choices([1, 2, 3, 4, 6, 7, 10, 97], k=rng.randint(1, 12))
        ]
        report = lower_bounds(Instance(k=k, sizes=sizes))
        assert report.size_bound == math.ceil(sum(sizes, F(0)))
        assert report.weight_bound == math.ceil(
            sum(F(math.ceil(s), k) for s in sizes)
        )
        assert report.count_bound == math.ceil(F(len(sizes), k))


def test_shared_bins_lists_multi_item_bins_per_item():
    # bin 1 holds item 2 alone; bins 0 and 3 both join items 0 and 1
    bins = [(1, 0), (2,), {0, 2, 3}, [0, 1], ()]
    assert shared_bins(5, bins) == [[0, 2, 3], [0, 3], [2], [2], []]
    assert shared_bins(2, []) == [[], []]


def _members(packing):
    return [[item for item, _ in entries] for entries in packing.bins]


def _edges(packing):
    """The packing graph of a k = 2 packing as (u, v) pairs, one per bin; a
    one-item bin is the loop (u, u)."""
    return [(ids[0], ids[-1]) for ids in _members(packing)]


def test_graph_of_edges_and_loops():
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2), F(1, 2)))
    shared = Packing.build([[(0, F(1, 2)), (1, F(1, 2))], [(2, F(1, 2))]])
    # a one-item bin (a loop) neighbours nothing and closes no cycle
    assert shared_bins(inst.n, _members(shared)) == [[0], [0], []]
    assert is_acyclic(inst.n, _edges(shared))
    assert is_acyclic(1, [(0, 0), (0, 0)])


def test_graph_of_chain():
    # three items in two bins form the path 0-1-2
    inst = Instance(k=2, sizes=(F(3, 5), F(3, 5), F(3, 5)))
    packing = Packing.build(
        [[(0, F(3, 5)), (1, F(2, 5))], [(1, F(1, 5)), (2, F(3, 5))]]
    )
    assert shared_bins(inst.n, _members(packing)) == [[0], [0, 1], [1]]
    assert is_acyclic(inst.n, _edges(packing))


def test_graph_edge_positions_invert_to_bins():
    # shared_bins indexes bin positions, so each entry names a bin that
    # holds the item
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2), F(1)))
    packing = Packing.build(
        [[(2, F(1, 2)), (0, F(1, 2))], [(1, F(1, 2)), (2, F(1, 2))]]
    )
    index = shared_bins(inst.n, _members(packing))
    assert index == [[0], [1], [0, 1]]
    for item, bins in enumerate(index):
        for b in bins:
            assert item in {i for i, _ in packing.bins[b]}


def test_graph_detects_cycles():
    inst = Instance(k=2, sizes=(F(2, 3),) * 3)
    cycle = Packing.build(
        [
            [(0, F(1, 3)), (1, F(1, 3))],
            [(1, F(1, 3)), (2, F(1, 3))],
            [(2, F(1, 3)), (0, F(1, 3))],
        ]
    )
    assert not is_acyclic(inst.n, _edges(cycle))
    # two bins of one pair are parallel edges: a cycle of length 2
    assert not is_acyclic(2, [(0, 1), (0, 1)])


def test_degree_counts_bins_with_item():
    # item 0 sits in two bins, only one of them beside another item: the
    # one-item bin is not indexed
    inst = Instance(k=2, sizes=(F(3, 2), F(1, 2)))
    packing = Packing.build(
        [[(0, F(1))], [(0, F(1, 2)), (1, F(1, 2))]]
    )
    assert shared_bins(inst.n, _members(packing)) == [[1], [1]]


def test_validate_packing_detects_mutations():
    import random

    from splitpack import gen_random, next_fit

    rng = random.Random(13)
    caught = 0
    for _ in range(120):
        inst = gen_random(rng.randint(1, 6), 2, "mixed", seed=rng.randrange(2**30))
        packing, _ = next_fit(inst)
        bins = [list(entries) for entries in packing.bins]
        kind = rng.randrange(4)
        b = rng.randrange(len(bins))
        if kind == 0:  # shrink one part: coverage breaks
            item, part = bins[b][0]
            bins[b][0] = (item, part / 2)
        elif kind == 1:  # drop an entry: coverage breaks (maybe empty bin)
            bins[b].pop()
        elif kind == 2:  # inflate one part: capacity or coverage breaks
            item, part = bins[b][0]
            bins[b][0] = (item, part + 1)
        else:  # smuggle in an unknown item
            bins[b].append((inst.n + 3, F(1, 100)))
        mutated = Packing.build(bins, list(packing.labels))
        issues = validate_packing(inst, mutated)
        assert issues, (inst.sizes, kind, bins)
        caught += 1
    assert caught == 120


# Mersenne primes of 89 and 107 bits: a size over either has no integer unit,
# so the solvers and rewrites run on its Fractions at capacity 1.
_NO_UNIT = (2**89 - 1, 2**107 - 1)


@st.composite
def _unit_instances(draw):
    """k = 2..5, up to eight sizes of at most 2, over small denominators (the
    integer unit) or over the primes of ``_NO_UNIT`` (the Fraction unit)."""
    dens = _NO_UNIT if draw(st.booleans()) else range(1, 13)
    sizes = []
    for _ in range(draw(st.integers(1, 8))):
        den = draw(st.sampled_from(dens))
        sizes.append(F(draw(st.integers(1, 2 * den)), den))
    return Instance(k=draw(st.integers(2, 5)), sizes=tuple(sizes))


def _upper_packing(inst):
    """The oracle's upper bound as the checked ``Packing`` that
    ``exact._solve`` makes of it when it is the answer."""
    cap, scaled = unit_sizes(inst.sizes)
    bins, label = _upper_bound_packing(inst.k, cap, scaled, lower_bounds(inst).best)
    return checked_packing(inst, bins, cap, scaled, [label] * len(bins))


@settings(deadline=None)
@given(inst=_unit_instances(), seed=st.integers(0, 2**30))
def test_validate_packing_matches_a_full_check(inst, seed):
    # marked solver and rewrite outputs, and packings that carry no mark
    # (loaded, hand-built, replaced, some invalid): validate_packing always
    # gives the full Fraction check's answer, also when asked again
    packing, trace = next_fit(inst)
    upper = _upper_packing(inst)
    outputs = [packing, upper]
    if inst.k == 2:
        outputs += [pack_75(inst).packing, normalize(inst, packing)]
    cap = unit_sizes(inst.sizes)[0]
    rng = random.Random(seed)
    bins = [list(entries) for entries in packing.bins]
    unmarked = [io.loads_packing(io.dumps_packing(out)) for out in outputs]
    unmarked += [dataclasses.replace(out) for out in outputs]
    traces = [trace]
    for mutated in _mutations(inst, bins, F(1, cap), rng):
        hand = Packing.build(mutated)
        replaced = dataclasses.replace(packing, bins=hand.bins, labels=hand.labels)
        unmarked += [hand, replaced]
        traces.append(dataclasses.replace(trace, bins=hand.bins))
    for out in outputs + unmarked:
        expected = bin_violations(inst, out.bins)
        assert validate_packing(inst, out) == expected
        assert validate_packing(inst, out) == expected
    for tr in traces:
        if bin_violations(inst, tr.bins):
            with pytest.raises(ValueError, match="trace does not match the instance"):
                check_block_inequality(inst, tr)
        else:
            full = check_block_inequality(inst, dataclasses.replace(tr))
            assert check_block_inequality(inst, tr) == full


def _counting_checks(monkeypatch):
    """Count the full checks ``validate_packing`` and the trace check run."""
    calls = []
    full = core.bin_violations

    def counting(*args):
        calls.append(args)
        return full(*args)

    monkeypatch.setattr(core, "bin_violations", counting)
    return calls


def test_a_mark_holds_only_for_its_instance_and_bins(monkeypatch):
    inst = gen_random(40, 2, "mixed", 5)
    packing, _ = next_fit(inst)
    calls = _counting_checks(monkeypatch)
    assert validate_packing(inst, packing) == [] and not calls
    # an equal but distinct instance: checked in full, as is a replaced copy
    assert validate_packing(Instance(k=2, sizes=inst.sizes), packing) == []
    assert validate_packing(inst, dataclasses.replace(packing)) == []
    assert len(calls) == 2
    # bins swapped in place of the checked ones are checked in full (a
    # fresh output: each clean check above marks the packing anew)
    packing, _ = next_fit(inst)
    wrong = packing.bins[:-1]
    object.__setattr__(packing, "bins", wrong)
    assert validate_packing(inst, packing) == bin_violations(inst, wrong) != []


def test_a_mark_holds_only_for_its_k(monkeypatch):
    # the same sizes object under a smaller k: the 3-part bins now fail
    inst = gen_random(30, 3, "mixed", 2)
    packing, _ = next_fit(inst)
    assert max(map(len, packing.bins)) == 3
    other = Instance(k=2, sizes=(F(1),))
    object.__setattr__(other, "sizes", inst.sizes)
    assert validate_packing(other, packing) == bin_violations(other, packing.bins) != []


def test_a_mark_does_not_survive_pickling(monkeypatch):
    inst = gen_random(40, 2, "mixed", 6)
    packing, trace = next_fit(inst)
    calls = _counting_checks(monkeypatch)
    # the pair travels together, so sizes and bins stay shared after loading
    inst2, packing2, trace2 = pickle.loads(pickle.dumps((inst, packing, trace)))
    assert packing2 == packing and trace2 == trace
    assert validate_packing(inst2, packing2) == []
    assert check_block_inequality(inst2, trace2)
    assert len(calls) == 2
    # a checked copy is marked in its turn
    assert validate_packing(inst2, packing2) == [] and len(calls) == 2


def test_a_clean_check_marks_only_immutable_bins(monkeypatch):
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2)))
    pair = Packing.build([[(0, F(1, 2)), (1, F(1, 2))]])
    loaded = io.loads_packing(io.dumps_packing(pair))
    calls = _counting_checks(monkeypatch)
    assert validate_packing(inst, loaded) == [] == validate_packing(inst, loaded)
    assert len(calls) == 1
    # list bins could change in place, so each call checks them again
    bins = [[(0, F(1, 2)), (1, F(1, 2))]]
    listed = Packing(bins, ("bin",))
    assert validate_packing(inst, listed) == []
    bins[0][1] = (1, F(1, 4))
    assert validate_packing(inst, listed) == ["coverage: item 1 covered 1/4 of 1/2"]
    assert len(calls) == 3


def test_every_solver_output_leaves_checked(monkeypatch):
    # next fit, pack_75, an exact_opt search witness, feasible_in at the
    # optimum and padded past it, and normalize: each output was checked
    # in its unit on the way out, so validate_packing runs no full check
    inst = gen_random(6, 2, "mixed", 9)
    packing, _ = next_fit(inst)
    opt, witness = exact_opt(inst)
    padded = feasible_in(inst, opt + 2)
    outputs = [packing, pack_75(inst).packing, witness, feasible_in(inst, opt)]
    outputs += [padded, normalize(inst, packing)]
    assert set(witness.labels) == set(outputs[3].labels) == {EXACT_LABEL}
    assert padded.n_bins == opt + 2
    calls = _counting_checks(monkeypatch)
    for out in outputs:
        assert validate_packing(inst, out) == []
    assert not calls


def test_checked_packing_raises_on_bins_that_fail_in_their_unit():
    inst = Instance(k=2, sizes=(F(1, 4), F(3, 4)))
    cap, scaled = unit_sizes(inst.sizes)
    packing = checked_packing(inst, [[(0, 1), (1, 3)]], cap, scaled, ["x"])
    assert packing.bins == (((0, F(1, 4)), (1, F(3, 4))),)
    with pytest.raises(InternalError, match=r"\(bin capacity 4\): capacity: bin 0"):
        checked_packing(inst, [[(0, 2), (1, 3)]], cap, scaled, ["x"])
    with pytest.raises(InternalError, match="coverage: item 1 covered 2 of 3"):
        checked_packing(inst, [[(0, 1), (1, 2)]], cap, scaled, ["x"])


def _in_unit(inst, packing):
    """The packing's bins in the unit of ``unit_sizes`` over the sizes and
    its parts, as lists: integer parts over cap, or the Fractions at cap 1."""
    cap, sizes = unit_sizes(
        inst.sizes, (part for entries in packing.bins for _, part in entries)
    )
    if sizes is inst.sizes:
        return cap, sizes, [list(entries) for entries in packing.bins]
    bins = [
        [(i, p.numerator * (cap // p.denominator)) for i, p in entries]
        for entries in packing.bins
    ]
    return cap, sizes, bins


def _shaped(bins):
    """The bins as lists, as tuples and as a generator of tuples."""
    yield [list(entries) for entries in bins]
    yield tuple(tuple(entries) for entries in bins)
    yield (tuple(entries) for entries in bins)


@settings(deadline=None)
@given(inst=_unit_instances(), seed=st.integers(0, 2**30))
def test_bin_violations_integer_pass_matches_pair_path(inst, seed):
    # solver and rewrite bins, valid and with one fault of each kind: the
    # integer pass returns [] exactly when the pair path finds nothing, and
    # bin_violations returns the pair path's list (a list iterator takes
    # it) and the reference's for every shape of bins; in the Fraction unit
    # the pass finds nothing to decide
    packing = next_fit(inst)[0]
    upper = _upper_packing(inst)
    outputs = [packing, upper]
    if inst.k == 2:
        outputs += [pack_75(inst).packing, normalize(inst, packing)]
    rng = random.Random(seed)
    for out in outputs:
        cap, sizes, bins = _in_unit(inst, out)
        in_ints = sizes is not inst.sizes
        step = 1 if in_ints else F(1, max(s.denominator for s in inst.sizes))
        cases = [(m, True) for m in _mutations(inst, bins, step, rng)]
        b = rng.randrange(len(bins))
        item, part = bins[b][0]
        twice = [list(entries) for entries in bins]
        twice[b].append((item, part))  # one item twice in a bin
        cases.append((twice, False))
        absent = [i for i in range(inst.n) if i not in {j for j, _ in bins[b]}]
        if absent and len(bins[b]) < inst.k:  # a zero part, and nothing else
            zero = [list(entries) for entries in bins]
            zero[b].append((absent[0], 0 * part))
            cases.append((zero, True))
        if part > 1:  # the same coverage, split over two entries of one bin
            split = [list(entries) for entries in bins]
            split[b][0:1] = [(item, 1), (item, part - 1)]
            cases.append((split, False))
        for mutated, ref_reports_all in cases:
            pair = bin_violations(inst, iter(mutated), cap, sizes)
            assert core._valid_in_ints(inst.k, mutated, cap, sizes) == (
                in_ints and not pair
            )
            if ref_reports_all:  # the reference does not detect duplicates
                assert pair == ref.bin_violations(inst, mutated, cap, sizes)
            for shaped in _shaped(mutated):
                assert bin_violations(inst, shaped, cap, sizes) == pair
            if not in_ints:
                assert bin_violations(inst, mutated) == pair


def test_integer_pass_gives_up_on_an_entry_native_operators_refuse():
    # an item id of None: the integer pass answers False on the TypeError,
    # and the pair path meets the entry as it does for an iterator of the
    # same bins
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 3)))
    cap, sizes = unit_sizes(inst.sizes)
    bins = [[(0, 3), (None, 2)]]
    assert core._valid_in_ints(inst.k, bins, cap, sizes) is False

    def outcome(shaped):
        try:
            return bin_violations(inst, shaped, cap, sizes)
        except TypeError:
            return TypeError

    assert outcome(bins) == outcome(iter(bins))


def test_integer_pass_runs_only_in_the_integer_unit(monkeypatch):
    calls = []
    full = core._valid_in_ints
    monkeypatch.setattr(
        core, "_valid_in_ints", lambda *a: calls.append(full(*a)) or calls[-1]
    )
    inst = gen_random(50, 3, "mixed", 4)
    next_fit(inst)
    assert calls == [True]
    # sizes over an 89-bit prime: no integer unit, so bins of Fractions
    hostile = Instance(k=2, sizes=(F(3, _NO_UNIT[0]), F(1, 3), F(5, 4)))
    packing = next_fit(hostile)[0]
    assert validate_packing(hostile, dataclasses.replace(packing)) == []
    assert bin_violations(hostile, list(packing.bins), 1, hostile.sizes) == []
    assert calls == [True]


def _two_pass_bounds(inst):
    """The bounds from two passes over the sizes: the volume as a sum of
    Fractions, and ceil(size) summed by ``math.ceil``."""
    size_bound = math.ceil(sum(inst.sizes, F(0)))
    weight_bound = -(-sum(map(math.ceil, inst.sizes)) // inst.k)
    count_bound = -(-inst.n // inst.k)
    best = max(size_bound, weight_bound, count_bound)
    return core.BoundsReport(size_bound, weight_bound, count_bound, best)


@given(inst=_unit_instances())
def test_lower_bounds_one_pass_matches_two_passes(inst):
    assert lower_bounds(inst) == _two_pass_bounds(inst)


def _two_read_unit_sizes(sizes, parts=()):
    """``unit_sizes`` as it read each size twice: the set of denominators,
    then the scaled list from the numerators and denominators."""
    scale = 1
    for den in {s.denominator for s in sizes}.union(p.denominator for p in parts):
        scale = math.lcm(scale, den)
        if scale.bit_length() > core.UNIT_BITS:
            return 1, sizes
    return scale, [s.numerator * (scale // s.denominator) for s in sizes]


@st.composite
def _rationals(draw, max_size):
    """Up to max_size Fractions over small denominators, the primes of
    ``_NO_UNIT`` or products of both."""
    dens = st.sampled_from([1, 2, 3, 7, 12, 2**40 + 15, *_NO_UNIT, 6 * _NO_UNIT[0]])
    return [
        F(draw(st.integers(1, 4 * den)), den)
        for den in draw(st.lists(dens, max_size=max_size))
    ]


@given(sizes=_rationals(10), parts=_rationals(4))
def test_unit_sizes_reads_each_size_once(sizes, parts):
    # the same unit as the two-read form, with and without parts, also where
    # the lcm passes UNIT_BITS and the sizes come back as they are
    for extra in ((), parts):
        cap, scaled = unit_sizes(sizes, extra)
        want_cap, want = _two_read_unit_sizes(sizes, extra)
        assert (cap, list(scaled)) == (want_cap, list(want))
        assert (scaled is sizes) == (want is sizes)
        if scaled is not sizes:
            assert all(type(s) is int for s in scaled)
            assert [F(s, cap) for s in scaled] == sizes
