"""Constructive instance families and seeded random instances.

The two worst-case families ship with a certified optimal packing: a valid
packing whose bin count matches the known optimum, so tests can check ratios
without running the exact solver.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .core import Instance, Packing, brief_fraction, brief_repr

OPT_LABEL = "opt"

MAX_BRUTE_TRIPLE_GROUPS = 4

DISTRIBUTIONS = ("uniform", "mixed", "heavy")
MAX_DENOMINATOR = 12


def gen_nf_worst(k: int, big_blocks: int) -> tuple[Instance, Packing]:
    """Adversarial family for NEXT FIT: one item of size M*k - 1 followed by
    M*(k-1)*k items of size 1/(M*k*(k-1)), where M = big_blocks.

    NEXT FIT spends M*(2k-1) - 1 bins on it; the certified packing splits the
    big item into M*k parts of (M*k-1)/(M*k) and tops each bin up with k-1
    tiny items, using M*k exactly-full bins.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {brief_repr(k)}")
    if big_blocks < 1:
        raise ValueError(f"big_blocks must be at least 1, got {brief_repr(big_blocks)}")
    m = big_blocks
    tiny = Fraction(1, m * k * (k - 1))
    sizes = [Fraction(m * k - 1)] + [tiny] * (m * (k - 1) * k)
    inst = Instance(k=k, sizes=tuple(sizes))
    big_part = Fraction(m * k - 1, m * k)
    bins = []
    tiny_id = 1
    for _ in range(m * k):
        entries = [(0, big_part)]
        for _ in range(k - 1):
            entries.append((tiny_id, tiny))
            tiny_id += 1
        bins.append(entries)
    certified = Packing.build(bins, [OPT_LABEL] * len(bins))
    return inst, certified


def gen_a75_worst(n_scale: int) -> tuple[Instance, Packing]:
    """Adversarial family for the k=2 two-stage algorithm, parameterized by N:
    4N small items of size 2/N, 2N medium items of size 1 - 1/N and 3N medium
    items of size 1 - 2/N.

    The certified optimal packing uses 5N bins: 3N smalls sit whole, one per
    bin, N smalls are split into two halves of 1/N, and the mediums fill the
    gaps exactly. The item classes match their names only for N >= 5 (at
    N = 3, 4 the "small" size 2/N is above 1/2 or on the boundary), and the
    7N - 6 algorithm bin count additionally needs N even.
    """
    if n_scale < 3:
        raise ValueError(f"N must be at least 3, got {brief_repr(n_scale)}")
    n = n_scale
    small = Fraction(2, n)
    med_a = 1 - Fraction(1, n)
    med_b = 1 - Fraction(2, n)
    sizes = [small] * (4 * n) + [med_a] * (2 * n) + [med_b] * (3 * n)
    inst = Instance(k=2, sizes=tuple(sizes))
    bins = []
    # 3N bins: one whole small plus one medium of size 1 - 2/N.
    for j in range(3 * n):
        bins.append([(j, small), (4 * n + 2 * n + j, med_b)])
    # 2N bins: half of a small plus one medium of size 1 - 1/N.
    half = Fraction(1, n)
    for j in range(2 * n):
        small_id = 3 * n + j // 2
        bins.append([(small_id, half), (4 * n + j, med_a)])
    certified = Packing.build(bins, [OPT_LABEL] * len(bins))
    return inst, certified


def gen_from_3partition(numbers: list[int], target: int, k: int) -> Instance:
    """Reduction from 3-partition: m*(k-3) padding items of size
    (3k-1)/(3k(k-3)) plus one adapted item of size s_j/(3kB) per number
    (s_j/B when k = 3, where no padding exists). Total size is exactly m, so
    the numbers partition into triples of sum B iff the items pack into m
    bins.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {brief_repr(k)}")
    if len(numbers) % 3 != 0 or not numbers:
        raise ValueError(f"need 3m numbers, got {len(numbers)}")
    m = len(numbers) // 3
    if sum(numbers) != m * target:
        raise ValueError(
            f"numbers sum to {brief_repr(sum(numbers))}, "
            f"expected m*B = {brief_repr(m * target)}"
        )
    quarter = Fraction(target, 4)
    half = Fraction(target, 2)
    for idx, value in enumerate(numbers):
        if not (quarter < value < half):
            raise ValueError(
                f"number {idx} = {brief_repr(value)} outside the open interval "
                f"({brief_fraction(quarter)}, {brief_fraction(half)})"
            )
    sizes: list[Fraction] = []
    if k > 3:
        padding = Fraction(3 * k - 1, 3 * k * (k - 3))
        sizes.extend([padding] * (m * (k - 3)))
        sizes.extend(Fraction(v, 3 * k * target) for v in numbers)
    else:
        sizes.extend(Fraction(v, target) for v in numbers)
    return Instance(k=k, sizes=tuple(sizes))


def three_partition_brute(numbers: list[int], target: int) -> bool:
    """Ground-truth check: can the numbers split into triples of sum target?

    Exhaustive search, capped at four triples.
    """
    if len(numbers) % 3 != 0:
        raise ValueError(f"need 3m numbers, got {len(numbers)}")
    m = len(numbers) // 3
    if m > MAX_BRUTE_TRIPLE_GROUPS:
        raise ValueError(
            f"brute-force triple search is capped at m <= {MAX_BRUTE_TRIPLE_GROUPS}"
        )
    if sum(numbers) != m * target:
        return False

    def solve(pool: tuple[int, ...]) -> bool:
        if not pool:
            return True
        first, rest = pool[0], pool[1:]
        for a, b in itertools.combinations(range(len(rest)), 2):
            if first + rest[a] + rest[b] == target:
                remaining = tuple(
                    v for idx, v in enumerate(rest) if idx not in (a, b)
                )
                if solve(remaining):
                    return True
        return False

    return solve(tuple(sorted(numbers, reverse=True)))


def gen_random(
    n: int,
    k: int,
    size_distribution: str = "uniform",
    seed: int = 0,
) -> Instance:
    """Seeded random instance; identical seeds give identical instances.

    Distributions: "uniform" draws rationals in (0, 1] with denominator at
    most MAX_DENOMINATOR; "mixed" draws small/medium/large items (sizes up to
    2) with proportions 50/35/15; "heavy" draws sizes up to k. Denominators
    stay bounded so the exact oracle stays exact and fast.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {brief_repr(n)}")
    if size_distribution not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {size_distribution!r}, "
            f"expected one of {DISTRIBUTIONS}"
        )
    rng = random.Random(seed)
    sizes: list[Fraction] = []
    for _ in range(n):
        if size_distribution == "uniform":
            sizes.append(_uniform_unit(rng))
        elif size_distribution == "mixed":
            roll = rng.random()
            if roll < 0.5:
                sizes.append(_small(rng))
            elif roll < 0.85:
                sizes.append(_medium(rng))
            else:
                sizes.append(1 + _uniform_unit(rng))
        else:  # heavy
            # randrange(k) <= k - 1 and the unit part <= 1: at most k.
            sizes.append(rng.randrange(k) + _uniform_unit(rng))
    return Instance(k=k, sizes=tuple(sizes))


def _uniform_unit(rng: random.Random) -> Fraction:
    den = rng.randint(1, MAX_DENOMINATOR)
    num = rng.randint(1, den)
    return Fraction(num, den)


def _small(rng: random.Random) -> Fraction:
    den = rng.randint(2, MAX_DENOMINATOR)
    num = rng.randint(1, den // 2)  # den >= 2, so num / den <= 1/2
    return Fraction(num, den)


def _medium(rng: random.Random) -> Fraction:
    den = rng.randint(2, MAX_DENOMINATOR)
    num = rng.randint(den // 2 + 1, den)
    return Fraction(num, den)
