import dataclasses
import hashlib
import importlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_nextfit
from reference_core import scaled_sizes
from splitpack import (
    CloseReason,
    Instance,
    InternalError,
    NfTrace,
    check_block_inequality,
    core,
    gen_nf_worst,
    gen_random,
    next_fit,
    validate_packing,
)
from splitpack.core import unit_sizes
from splitpack.nextfit import next_fit_bins, spill


def test_worst_family_k2_m2():
    inst, _ = gen_nf_worst(2, 2)
    packing, trace = next_fit(inst)
    assert packing.n_bins == 5
    assert validate_packing(inst, packing) == []
    assert trace.n_blocks == 2


def test_worst_family_k3_m1():
    inst, _ = gen_nf_worst(3, 1)
    packing, _ = next_fit(inst)
    assert packing.n_bins == 4


def test_empty_instance():
    packing, trace = next_fit(Instance(k=2, sizes=()))
    assert packing.n_bins == 0
    assert trace.blocks == ()
    assert check_block_inequality(Instance(k=2, sizes=()), trace)


def test_single_item_trace():
    inst = Instance(k=2, sizes=(F(1, 2),))
    packing, trace = next_fit(inst)
    assert packing.n_bins == 1
    assert trace.close_reasons == (CloseReason.END_OF_INPUT,)
    assert check_block_inequality(inst, trace)


def test_spilled_item_opens_ceil_bins():
    inst = Instance(k=2, sizes=(F(1, 4), F(5, 2)))
    packing, trace = next_fit(inst)
    # 1/4 then fill to 1, then spill 7/4 into two more bins
    assert [sorted(b) for b in packing.bins] == [
        [(0, F(1, 4)), (1, F(3, 4))],
        [(1, F(1))],
        [(1, F(3, 4))],
    ]
    assert trace.n_blocks == 1  # spill bins close by size, not by part count


def test_overflow_head_does_not_end_block():
    # the middle bins hold k parts but their last item continues onward
    inst = Instance(k=2, sizes=(F(5, 8), F(1), F(5, 9), F(1, 3)))
    _, trace = next_fit(inst)
    assert trace.close_reasons[:2] == (CloseReason.FILLED, CloseReason.FILLED)
    assert trace.n_blocks == 1
    assert check_block_inequality(inst, trace)


def test_block_invariants_random():
    rng = random.Random(1)
    for _ in range(300):
        k = rng.choice([2, 3, 4])
        inst = gen_random(rng.randint(0, 8), k, "mixed", seed=rng.randrange(2**30))
        packing, trace = next_fit(inst)
        assert validate_packing(inst, packing) == []
        assert check_block_inequality(inst, trace)
        assert sum(length for _, length in trace.blocks) == trace.n_bins
        for start, length in trace.blocks:
            for b in range(start, start + length - 1):
                # every bin but a block's last is exactly full
                total = sum((p for _, p in trace.bins[b]), F(0))
                assert total == 1
        for start, length in trace.blocks[:-1]:
            assert len(trace.bins[start + length - 1]) == k
        for entries in trace.bins:
            assert len(entries) <= k


def test_block_inequality_values():
    inst, _ = gen_nf_worst(2, 2)
    _, trace = next_fit(inst)
    # total weight 7/2 against (5 + (2-1)) / 2 = 3
    assert trace.n_bins == 5 and trace.n_blocks == 2
    assert check_block_inequality(inst, trace)
    inst, _ = gen_nf_worst(3, 1)
    _, trace = next_fit(inst)
    assert check_block_inequality(inst, trace)
    # three half items in three bins: weight 3/2 meets (3 + 0)/2 exactly in
    # one block and falls short of (3 + 1)/2 in two
    inst = Instance(k=2, sizes=(F(1, 2),) * 3)
    bins = tuple(((i, F(1, 2)),) for i in range(3))
    reasons = (CloseReason.END_OF_INPUT,) * 3
    assert check_block_inequality(inst, NfTrace(bins, reasons, ((0, 3),)))
    assert not check_block_inequality(inst, NfTrace(bins, reasons, ((0, 1), (1, 2))))


def test_block_inequality_rejects_mismatched_trace(monkeypatch):
    inst, _ = gen_nf_worst(2, 1)
    _, trace = next_fit(inst)
    other = Instance(k=2, sizes=(F(1, 2),))
    with pytest.raises(ValueError):
        check_block_inequality(other, trace)
    # next_fit's mark holds for its own instance only: an equal but distinct
    # instance, or a rebuilt trace, gets the full check
    calls = []
    full = core.bin_violations
    monkeypatch.setattr(core, "bin_violations", lambda *a: calls.append(a) or full(*a))
    assert check_block_inequality(inst, trace) and not calls
    assert check_block_inequality(Instance(k=2, sizes=inst.sizes), trace)
    assert check_block_inequality(inst, dataclasses.replace(trace))
    assert len(calls) == 2
    # so does a trace whose bins were swapped in place (a fresh one: each
    # clean check above marks the trace anew)
    _, trace = next_fit(inst)
    object.__setattr__(trace, "bins", trace.bins[1:])
    with pytest.raises(ValueError, match="trace does not match the instance"):
        check_block_inequality(inst, trace)


def test_next_fit_checks_its_bins_in_the_unit(monkeypatch):
    # a kernel that loses a part is caught before the trace is made
    nextfit = importlib.import_module("splitpack.nextfit")
    kernel = nextfit.next_fit_bins

    def lossy(stream, k, cap):
        return kernel(stream, k, cap)[:-1]

    monkeypatch.setattr(nextfit, "next_fit_bins", lossy)
    with pytest.raises(InternalError, match=r"\(bin capacity 10\): coverage"):
        next_fit(Instance(k=2, sizes=(F(1, 2), F(7, 10), F(1, 5))))


def test_online_prefix_property():
    rng = random.Random(7)
    for _ in range(60):
        k = rng.choice([2, 3])
        inst = gen_random(rng.randint(1, 8), k, "mixed", seed=rng.randrange(2**30))
        full, _ = next_fit(inst)
        for j in range(1, inst.n):
            prefix, _ = next_fit(Instance(k=k, sizes=inst.sizes[:j]))
            # all bins but the still-open last one are final
            assert prefix.bins[:-1] == full.bins[: prefix.n_bins - 1]
            # placed items are final; the open bin only gains new entries
            last = dict(prefix.bins[-1])
            grown = dict(full.bins[prefix.n_bins - 1])
            for item, part in last.items():
                assert grown.get(item) == part


def test_next_fit_bins_stream_opening_with_a_remainder_above_one():
    # pack_75's S6 group: the first entry is what is left of a large item
    bins = next_fit_bins([(0, F(7, 4)), (1, F(1, 2)), (2, F(3, 5))], 2)
    assert bins == [
        [(0, F(1))],
        [(0, F(3, 4)), (1, F(1, 4))],
        [(1, F(1, 4)), (2, F(3, 5))],
    ]


def test_next_fit_exactly_full_bin_of_whole_parts():
    # k whole parts fill the bin exactly: the part limit closes it
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2), F(1, 3)))
    packing, trace = next_fit(inst)
    assert packing.bins == (((0, F(1, 2)), (1, F(1, 2))), ((2, F(1, 3)),))
    assert trace.close_reasons == (CloseReason.CARDINALITY, CloseReason.END_OF_INPUT)
    assert trace.blocks == ((0, 1), (1, 1))
    # with room for a third part the same bin closes by size
    _, trace = next_fit(dataclasses.replace(inst, k=3))
    assert trace.close_reasons == (CloseReason.FILLED, CloseReason.END_OF_INPUT)
    assert trace.blocks == ((0, 2),)


def test_next_fit_close_reasons_of_the_last_bin():
    # the last bin closes by the part limit at k parts, full at exactly the
    # capacity (a whole part or a spill's last bin), and by the end otherwise
    cases = [
        ((F(1, 2), F(1, 3)), CloseReason.CARDINALITY),
        ((F(1, 2), F(1, 2)), CloseReason.CARDINALITY),
        ((F(1, 3), F(2, 3), F(1)), CloseReason.FILLED),
        ((F(1, 2), F(5, 2)), CloseReason.FILLED),
        ((F(1, 2), F(7, 4)), CloseReason.END_OF_INPUT),
    ]
    for sizes, reason in cases:
        _, trace = next_fit(Instance(k=2, sizes=sizes))
        assert trace.close_reasons[-1] is reason, sizes


def test_spill_fills_all_fresh_bins_but_the_last():
    assert spill(7, F(1)) == [[(7, F(1))]]
    assert spill(7, F(5, 2)) == [[(7, F(1))], [(7, F(1))], [(7, F(1, 2))]]
    assert spill(7, F(3)) == [[(7, F(1))]] * 3


def test_spill_in_a_scaled_unit():
    assert spill(7, 12, 6) == [[(7, 6)], [(7, 6)]]
    assert spill(7, 15, 6) == [[(7, 6)], [(7, 6)], [(7, 3)]]
    assert spill(7, 1, 6) == [[(7, 1)]]


def _scaled_run(stream, k):
    """The kernel on the stream's sizes scaled to integers, mapped back."""
    cap, scaled = scaled_sizes([size for _, size in stream])
    bins = next_fit_bins(zip([i for i, _ in stream], scaled), k, cap)
    for entries in bins:
        for _, part in entries:
            assert type(part) is int
    return [[(i, F(p, cap)) for i, p in entries] for entries in bins]


def _fraction_run(stream, k):
    bins = next_fit_bins(stream, k)
    for entries in bins:
        for _, part in entries:
            # an overflowing item's whole-bin parts are the capacity 1 itself
            assert type(part) is F or (part == 1 and len(entries) == 1)
    return bins


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_next_fit_bins_scaled_matches_fraction_run(monkeypatch, k):
    rng = random.Random(20261018 + k)
    streams = [
        # exactly full bins by whole parts, by a spill and at the last item
        [(0, F(1, 2)), (1, F(1, 2)), (2, F(1, 3)), (3, F(2, 3))],
        [(0, F(3, 4)), (1, F(5, 4)), (2, F(1, 2)), (3, F(1, 2))],
        [(0, F(1, 3))] * 3 + [(1, F(2))],
        [(0, F(7, 4)), (1, F(1, 2)), (2, F(3, 5))],
        [(0, F(3))],
    ]
    for dist in ("uniform", "mixed", "heavy"):
        for _ in range(60):
            inst = gen_random(rng.randint(1, 12), k, dist, seed=rng.randrange(2**30))
            streams.append(list(inst.items()))
    # sizes on a coarse grid close many bins exactly full
    for _ in range(60):
        n = rng.randint(1, 12)
        streams.append([(i, F(rng.randint(1, 12), 4)) for i in range(n)])
    full = 0
    for stream in streams:
        got = _scaled_run(stream, k)
        assert got == _fraction_run(stream, k), stream
        full += sum(sum(p for _, p in entries) == 1 for entries in got)
    assert full > 100
    # next_fit's trace, in the integer unit and in the Fractions, on the
    # stream's sizes as an instance
    instances = [
        Instance(k=k, sizes=tuple(s for _, s in stream)) for stream in streams
    ]
    scaled = [next_fit(inst)[1] for inst in instances]
    monkeypatch.setattr(core, "UNIT_BITS", 0)
    for inst, trace in zip(instances, scaled):
        assert next_fit(inst)[1] == trace, inst


# Recorded at the commit before next_fit, pack_75 and the oracle's upper
# bound came to share one kernel; seed 20261018.
@pytest.mark.parametrize(
    "k, n_bins, digest",
    [
        (2, 7953, "b050b12a2d980f70cbbb435b907e5d2c43b563b0987bf46ca3ae2a8a6d1dfb00"),
        (3, 7141, "7e4ab175f1225fefbe73dc098afaab7898024e9b9afe6612b2370e1cd3ea48c9"),
        (5, 6961, "53c6f83f18e761a4955b7f04968859d35a7d3f15152a0c0ce3137221ed34ef42"),
    ],
    ids=["k2", "k3", "k5"],
)
def test_next_fit_golden_10k_items(k, n_bins, digest):
    packing, trace = next_fit(gen_random(10_000, k, "mixed", 20261018))
    assert packing.n_bins == n_bins
    reasons = [r.value for r in trace.close_reasons]
    key = (packing.bins, packing.labels, reasons, trace.blocks)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest


# Traces the 10^4-item golden runs do not reach: heavy sizes that spill over
# several bins, the worst family (every block but the last ends at k parts)
# and the Fraction unit. Recorded at the commit before next_fit derived its
# close reasons from the bins; seed 20261022.
@pytest.mark.parametrize(
    "family, k, n_bins, n_blocks, digest",
    [
        ("heavy", 2, 2359, 329, "8eb8f189070d029985ff46babd2cc32c7a99a7414bdf24f31d2272ac685a4d46"),
        ("heavy", 3, 3243, 18, "7ee8bbe78b02760f233ca9f699098c7f2d2b1b5bee0ddc348b9b4698a7f2c025"),
        ("heavy", 4, 4321, 3, "19f6e74918753c40fb1b36381321f1932bc8e2bab5b9128b8b0b788068f4e16f"),
        ("heavy", 5, 5266, 1, "e19ed74c6ba084a940806d1673fb3c5b6baa0ba45fe1d0c6289beff72a095387"),
        ("worst", 2, 8, 3, "51a8ee4236d2f729c76c5c95463e2cad37c8c902526bd7ff0b0ede44ccb058cf"),
        ("worst", 3, 14, 6, "2683bc8a6738fef3641bff21d496165fbc8694ea030e874d7b95b7f4afe58f7b"),
        ("worst", 5, 26, 12, "52aceb4591acfbd5ab27223f58c1e6d899f1add259a733c63fb83656dc81b39d"),
        ("fraction", 3, 1427, 172, "6d906fd20b00b7a41b41ce2ba4115aaa7f60913ceb8406c4f79bbab89677172b"),
    ],
    ids=["heavy-k2", "heavy-k3", "heavy-k4", "heavy-k5", "worst-k2", "worst-k3", "worst-k5", "fraction-k3"],
)
def test_next_fit_golden_traces(monkeypatch, family, k, n_bins, n_blocks, digest):
    if family == "worst":
        inst, _ = gen_nf_worst(k, 3)
    else:
        if family == "fraction":
            monkeypatch.setattr(core, "UNIT_BITS", 0)
        inst = gen_random(2000, k, "heavy" if family == "heavy" else "mixed", 20261022)
    packing, trace = next_fit(inst)
    assert (packing.n_bins, trace.n_blocks) == (n_bins, n_blocks)
    reasons = [r.value for r in trace.close_reasons]
    key = (packing.bins, packing.labels, reasons, trace.blocks)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest


def _typed(bins):
    # equal parts of different types compare equal; the kernels must agree
    # on the types too
    return [[(i, type(p), p) for i, p in entries] for entries in bins]


# Sizes on a grid of twelfths close bins exactly full; sizes up to 4 spill
# over several bins, and the optional head is a remainder above the
# capacity, as pack_75's S6 group opens.
_sizes_st = st.lists(
    st.builds(F, st.integers(1, 48), st.sampled_from([1, 2, 3, 4, 6, 12])),
    max_size=14,
)
_head_st = st.none() | st.builds(F, st.integers(13, 60), st.just(12))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 5), sizes=_sizes_st, head=_head_st)
@example(k=2, sizes=[F(1, 2), F(3, 5)], head=F(7, 4))
@example(k=2, sizes=[F(1, 2), F(1, 2), F(1, 3), F(2, 3)], head=None)
@example(k=3, sizes=[F(1, 3), F(7, 2), F(1, 2), F(3)], head=None)
def test_next_fit_bins_matches_reference_kernel(k, sizes, head):
    # the kernel gives the bins of the code it replaced, in the Fraction unit
    # at capacity 1 and in core.unit_sizes' integers
    stream = list(enumerate(sizes, 1))
    if head is not None:
        stream.insert(0, (0, head))
    ids = [i for i, _ in stream]
    cap, scaled = unit_sizes([size for _, size in stream])
    assert all(type(size) is int for size in scaled)
    for unit_stream, unit_cap in ((stream, 1), (list(zip(ids, scaled)), cap)):
        want_bins, _ = reference_nextfit.next_fit_bins(unit_stream, k, unit_cap)
        assert _typed(next_fit_bins(unit_stream, k, unit_cap)) == _typed(want_bins)
    # next_fit reads the close reasons the reference kernel records, on the
    # stream's sizes as an instance
    inst = Instance(k=k, sizes=tuple(size for _, size in stream))
    _, want_reasons = reference_nextfit.next_fit_bins(inst.items(), k)
    assert list(next_fit(inst)[1].close_reasons) == want_reasons


@pytest.mark.parametrize("cap", [1, 6])
def test_spill_matches_reference_spill(cap):
    rests = [F(n, 12) * cap for n in range(1, 73)] + list(range(1, 4 * cap + 1))
    for rest in rests:
        assert _typed(spill(5, rest, cap)) == _typed(
            reference_nextfit.spill(5, rest, cap)
        )
