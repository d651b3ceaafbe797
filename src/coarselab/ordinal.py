"""Finite set systems over the naturals: derived families, recursive rank,
and inclusivity.

A family is a finite set of nonempty finite sets of naturals.  The rank of
the empty family is 0; otherwise it is one plus the largest rank of a
derived family obtained by stripping a single element of the support.  For
finite families the rank always equals the largest member size, which the
tests cross-check by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


@dataclass(frozen=True, slots=True)
class FinFamily:
    """A deduplicated finite collection of nonempty finite sets of naturals."""

    members: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        for m in self.members:
            if not m:
                raise ValueError("family members must be nonempty")
            for x in m:
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                    raise ValueError("family members must contain naturals")

    @classmethod
    def of(cls, sets: Iterable[Iterable[int]]) -> "FinFamily":
        return cls(frozenset(frozenset(s) for s in sets))

    @classmethod
    def _trusted(cls, members: frozenset[frozenset[int]]) -> "FinFamily":
        """Wrap members already known to be nonempty sets of naturals,
        skipping the validation of `__post_init__`."""
        family = object.__new__(cls)
        object.__setattr__(family, "members", members)
        return family

    def support(self) -> frozenset[int]:
        """Union of all members."""
        out: set[int] = set()
        for m in self.members:
            out |= m
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.members)

    def __le__(self, other: "FinFamily") -> bool:
        return self.members <= other.members

    def to_json(self) -> list[list[int]]:
        return sorted(sorted(m) for m in self.members)


def derived_family(M: FinFamily, sigma: Iterable[int]) -> FinFamily:
    """All nonempty tau disjoint from sigma with tau-union-sigma a member.

    Each tau is `m - sigma` for a member `m` of the validated `M` that holds
    sigma as a proper subset, so it is a nonempty set of naturals and the
    result is not validated again."""
    s = frozenset(sigma)
    return FinFamily._trusted(frozenset(m - s for m in M.members if s < m))


def ord_rank(M: FinFamily,
             memo: dict[tuple[int, ...], int] | None = None) -> int:
    """Recursive rank: 0 for the empty family, else 1 + the best rank after
    stripping one support element.  Equals the maximum member size.

    The recursion runs on bitmasks: the sorted support is relabelled to bits
    0..k-1, each member becomes an int mask and each family the sorted tuple
    of its masks.  A family's masks are distinct, so that tuple is a
    canonical key.  `memo` maps mask tuples to their ranks.  A rank depends
    only on the family up to relabelling of its support, so a caller may
    share one dict across calls and every cached rank stays exact."""
    if memo is None:
        memo = {}

    def rank(members: tuple[int, ...]) -> int:
        if not members:
            return 0
        cached = memo.get(members)
        if cached is not None:
            return cached
        support = 0
        for m in members:
            support |= m
        best = 0
        while support:
            bit = support & -support
            support ^= bit
            # clearing one bit that every kept mask holds keeps them sorted
            # and distinct
            best = max(best, rank(tuple(
                m ^ bit for m in members if m & bit and m != bit)))
        memo[members] = best + 1
        return best + 1

    bits = {x: 1 << i for i, x in enumerate(sorted(M.support()))}
    return rank(tuple(sorted(sum(bits[x] for x in m) for m in M.members)))


def is_inclusive(M: FinFamily) -> bool:
    """Whether every nonempty subset of a member is itself a member."""
    for m in M.members:
        for size in range(1, len(m)):
            for sub in combinations(sorted(m), size):
                if frozenset(sub) not in M.members:
                    return False
    return True


def inclusive_closure(M: FinFamily) -> FinFamily:
    """Add every nonempty subset of every member."""
    out: set[frozenset[int]] = set()
    for m in M.members:
        elems = sorted(m)
        for size in range(1, len(elems) + 1):
            for sub in combinations(elems, size):
                out.add(frozenset(sub))
    return FinFamily(frozenset(out))
