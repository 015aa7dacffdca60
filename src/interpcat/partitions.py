"""Integer partition utilities shared across the library."""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache

Partition = tuple[int, ...]


def is_int(x) -> bool:
    """x is an integer: booleans and non-integral numbers are not."""
    # the exact-type test keeps plain ints off the slow ABC check
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def check_partition(lam) -> Partition:
    try:
        parts = tuple(lam)
    except TypeError as exc:
        raise ValueError(f"{lam!r} is not a partition (expected integers)") from exc
    if not all(map(is_int, parts)):
        raise ValueError(f"{lam!r} is not a partition (expected integers)")
    lam = tuple(map(int, parts))
    # weakly decreasing parts are all positive iff the last one is
    if (lam and lam[-1] <= 0) or any(map(operator.lt, lam, lam[1:])):
        raise ValueError(f"{lam} is not a partition (weakly decreasing, positive)")
    return lam


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0]))


def contains(lam: Partition, mu: Partition) -> bool:
    """mu fits inside lam row by row."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def hook_product(lam: Partition) -> int:
    conj = conjugate(lam)
    out = 1
    for i, row in enumerate(lam):
        for j in range(row):
            out *= row - j + conj[j] - i - 1
    return out


def sn_irrep_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux (hook length formula)."""
    return math.factorial(sum(lam)) // hook_product(lam)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n, largest first part first."""
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def sub_partitions(lam: Partition, size: int | None = None) -> list[Partition]:
    """Partitions contained in lam: all of them, or only those of one size.

    With a size, a row stops as soon as the rows below it cannot hold the
    rest, and the partitions come in the order of partitions_of(size); a
    negative size gives none.
    """
    out: list[Partition] = []

    def rec(row: int, cap: int, left: int, prefix: tuple[int, ...]):
        if size is None or not left:
            out.append(prefix)
        if row == len(lam) or not left:
            return
        below = lam[row + 1 :]
        for part in range(min(cap, lam[row], left), 0, -1):
            if size is not None and part + sum(min(part, x) for x in below) < left:
                break
            rec(row + 1, part, left - part, prefix + (part,))

    # unsized, left = |lam| - |prefix| never binds: it is at least |lam[row:]|
    rec(0, lam[0] if lam else 0, sum(lam) if size is None else size, ())
    return out


def durfee(lam: Partition) -> int:
    """Side of the largest square inside lam."""
    return sum(1 for i, row in enumerate(lam) if row >= i + 1)


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def double_factorial_odd(n: int) -> int:
    """The number of perfect matchings of n points: (n-1)!! for even n, and
    0 for odd n."""
    if n % 2:
        return 0
    out = 1
    for k in range(1, n, 2):
        out *= k
    return out
