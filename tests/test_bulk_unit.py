"""Differential tests of the bulk solvers' unit: ``pack_75`` and ``next_fit``
run in the unit of ``core.unit_sizes`` (integers over the common
denominator, or the ``Fraction``s themselves above ``UNIT_BITS`` bits) and
must return exactly what the ``Fraction`` versions in ``reference_algo75``
return: equal packings, reports and traces, part types included."""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference_algo75 as ref
from reference_core import scaled_sizes
from splitpack import Instance, core, gen_random, io, next_fit, pack_75
from splitpack.algo75 import SEVEN_BIN_SEARCH, TWO_BIN_REPACK, StepLabel, _main_pass
from splitpack.core import UNIT_BITS, unit_sizes


def assert_same(inst):
    if inst.k == 2:
        cap, sizes = unit_sizes(inst.sizes)
        bins, labels, reclassified = _main_pass(cap, sizes)
        want_bins, want_labels, want_reclassified = ref._main_pass(inst)
        # the raw bins with their entry order, which the trailing group reads
        assert [[(i, F(p, cap)) for i, p in entries] for entries in bins] == want_bins
        assert labels == want_labels
        assert (reclassified is None) == (want_reclassified is None)
        got, want = pack_75(inst), ref.pack_75(inst)
        assert got == want
        assert repr(got) == repr(want)
    got_nf, want_nf = next_fit(inst), ref.next_fit(inst)
    assert got_nf == want_nf
    assert repr(got_nf) == repr(want_nf)


def _random_instances(rng):
    for k in (2, 3, 4, 5):
        for dist in ("uniform", "mixed", "heavy"):
            for seed in range(40):
                yield gen_random(rng.randint(0, 40), k, dist, seed)
            yield gen_random(1000, k, dist, 1000 + k)


def _boundary_and_tie_instances(rng):
    # sizes exactly 1/2 and 1, on the class boundaries
    yield Instance(k=2, sizes=(F(1, 2),) * 5 + (F(1),) * 3 + (F(2),))
    yield Instance(k=2, sizes=(F(1), F(1, 2), F(3, 2), F(1, 2), F(1), F(1, 4)))
    yield Instance(k=3, sizes=(F(1, 2), F(1), F(1, 2), F(1, 2), F(1)))
    # many equal sizes: ties keep ascending ids in every class
    pool = [F(1, 3), F(2, 3), F(3, 2), F(1, 6), F(5, 6), F(1, 2), F(1), F(2)]
    for _ in range(60):
        values = rng.sample(pool, rng.randint(1, 4))
        sizes = [rng.choice(values) for _ in range(rng.randint(1, 60))]
        yield Instance(k=rng.choice((2, 2, 3, 5)), sizes=tuple(sizes))


def _above_bound_instances(rng):
    # each denominator alone past the bound, or two below it whose lcm is not
    for dens in (
        [2**UNIT_BITS + 1, 2**UNIT_BITS - 1, 3**41],
        [2**40 + 15, 3**25, 7],
    ):
        for _ in range(10):
            sizes = []
            for _ in range(rng.randint(2, 40)):
                d = rng.choice(dens)
                sizes.append(F(rng.randint(1, 2 * d), d))
            inst = Instance(k=rng.choice((2, 2, 3, 4)), sizes=tuple(sizes))
            yield inst


def test_bulk_solvers_match_fraction_reference():
    rng = random.Random(20261018)
    units = Counter()
    for make in (_random_instances, _boundary_and_tie_instances, _above_bound_instances):
        for inst in make(rng):
            assert_same(inst)
            units[unit_sizes(inst.sizes)[0] == 1] += 1
    # both units ran, each many times
    assert units[True] > 20 and units[False] > 400, units


SEVEN_YES = (F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(11, 20), F(401, 100))
SEVEN_NO = (F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(19, 20), F(401, 100))


@pytest.mark.parametrize(
    "sizes, fallback",
    [
        ((F(3, 5), F(1, 5), F(6, 5)), TWO_BIN_REPACK),
        ((F(3, 5), F(2, 5), F(9, 5)), TWO_BIN_REPACK),
        (SEVEN_YES, SEVEN_BIN_SEARCH),
        (SEVEN_NO, SEVEN_BIN_SEARCH),
    ],
    ids=["two-bin", "two-bin-infeasible", "seven-bin", "seven-bin-infeasible"],
)
def test_repair_patterns_match_fraction_reference(monkeypatch, sizes, fallback):
    inst = Instance(k=2, sizes=sizes)
    want = pack_75(inst)
    assert want.fallback_triggered == fallback
    assert_same(inst)
    # UNIT_BITS = 0 sends the main pass, the two-bin repair and the oracle
    # of the seven-bin repair down the Fraction path: the same report, bytes
    monkeypatch.setattr(core, "UNIT_BITS", 0)
    assert unit_sizes(sizes)[0] == 1
    got = pack_75(inst)
    assert got == want
    assert repr(got) == repr(want)
    assert io.dumps_packing(got.packing) == io.dumps_packing(want.packing)


def test_two_bin_repair_matches_fraction_reference():
    # One small, one medium and one large in twelfths, plus up to two more
    # items: the shapes where the two-bin repair triggers, repacks or keeps.
    rng = random.Random(20261019)
    outcomes = Counter()
    for _ in range(3000):
        twelfths = [rng.randint(1, 6), rng.randint(7, 12), rng.randint(13, 24)]
        twelfths += [rng.randint(1, 24) for _ in range(rng.randint(0, 2))]
        rng.shuffle(twelfths)
        inst = Instance(k=2, sizes=tuple(F(t, 12) for t in twelfths))
        got, want = pack_75(inst), ref.pack_75(inst)
        assert got == want, inst.sizes
        assert repr(got) == repr(want)
        if got.fallback_triggered == TWO_BIN_REPACK:
            outcomes[StepLabel.REPACKED in got.label_counts] += 1
    # triggered and kept, and triggered and repacked
    assert outcomes[False] > 100 and outcomes[True] > 10, outcomes


_SMALL_DENOMINATOR_SIZE = st.integers(1, 12).flatmap(
    lambda d: st.integers(1, 3 * d).map(lambda p: F(p, d))
)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 5),
    sizes=st.lists(_SMALL_DENOMINATOR_SIZE, max_size=30),
    two=st.booleans(),
)
def test_bulk_solvers_match_fraction_reference_hypothesis(k, sizes, two):
    assert_same(Instance(k=2 if two else k, sizes=tuple(sizes)))


def test_lone_small_beside_many_mediums_is_linear():
    # Each medium that cannot take the lone small used to rescan every later
    # medium; the last one, the smallest, decides alone.
    def inst(n):
        return Instance(k=2, sizes=(F(3, 10),) + (F(4, 5),) * n + (F(3, 5),))

    assert_same(inst(300))
    start = time.perf_counter()
    report = pack_75(inst(20_000))
    assert time.perf_counter() - start < 2.0
    assert not report.reclassified_small
    assert report.label_counts == {"S2a": 1, "S3": 16_000}


@pytest.mark.parametrize("bits", [UNIT_BITS - 1, UNIT_BITS, UNIT_BITS + 1])
def test_unit_sizes_at_the_bound(bits):
    # one denominator of `bits` bits, and 3 beside one of `bits - 1` bits,
    # whose lcm has `bits` bits as well
    for sizes in (
        (F(1, 2 ** (bits - 1)), F(3, 4), F(5, 2)),
        (F(2, 3), F(1, 2 ** (bits - 2)), F(7, 3)),
    ):
        assert math.lcm(*(s.denominator for s in sizes)).bit_length() == bits
        cap, scaled = unit_sizes(sizes)
        if bits <= UNIT_BITS:
            assert (cap, scaled) == scaled_sizes(sizes)
            assert all(type(s) is int for s in scaled)
        else:
            assert cap == 1 and scaled is sizes
        assert_same(Instance(k=2, sizes=sizes * 3))


def _first_primes(n):
    limit = 105_000  # the 10^4-th prime is 104729
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]][:n]


def test_hostile_denominators_cost_bounded_work():
    # 10^4 pairwise coprime denominators of about 300 digits (a power of
    # each of the first 10^4 primes), so their lcm is their product, some
    # 3 * 10^6 digits. The unit gives up at the first one, and both solvers
    # run on the Fractions in linear time: tiny and near-half smalls,
    # mediums just below 1 and integer larges keep every next-fit chain short.
    dens = [q ** math.ceil(299 / math.log10(q)) for q in _first_primes(10_000)]
    assert len(set(dens)) == 10_000
    assert all(300 <= len(str(d)) <= 305 for d in dens)
    sizes = tuple(
        (F(1, d), 1 - F(1, d), F(d - 1, 2 * d), F(i % 3 + 2))[i % 4]
        for i, d in enumerate(dens)
    )
    inst = Instance(k=2, sizes=sizes)
    start = time.perf_counter()
    cap, unit = unit_sizes(sizes)
    assert time.perf_counter() - start < 0.5
    assert cap == 1 and unit is sizes
    start = time.perf_counter()
    report = pack_75(inst)
    packing, trace = next_fit(inst)
    assert time.perf_counter() - start < 10.0
    assert report == ref.pack_75(inst)
    assert (packing, trace) == ref.next_fit(inst)
    assert set(report.label_counts) == {"S2a", "S2b", "S4", "S6"}
