"""Symmetric functions and central-character calculus.

Littlewood-Richardson coefficients by direct lattice-word tableau
enumeration (one bounded `lru_cache` on the tableau count); skew Schur Hall
pairings; the stable multiplicity formulas for mixed GL tensors and for
orthogonal/symplectic tensor products (stable-range semantics: no n
parameter, values are the large-n constants); the [alpha, beta, gamma]
triple encoding of partitions with its stabilized Harish-Chandra
multiplicity sum; and the moment calculus of central characters built from
P_k(x) = (x+1)^k - x^k, with a size budget on the integer search and one on
the moment degree.  The search meets in the middle: it buckets the c's by
their exact integer moments in the first r + s + 2 kept degrees and looks
each b up by the moments it leaves, so it costs the number of b's plus the
number of c's, not their product.

Partitions are checked once, in the public functions and `ShiftData`;
internal sums call the private kernels `_lr` and `_nl_inner` on partitions
the library built.  Both stable flavors run one (eps, c, d) enumeration;
its osp term and `osp_multiplicity` share the Newell-Littlewood inner sum.
LR tableaux fill by the smaller side; sums run over shapes inside the meet
of the shapes their factors need to contain.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from interpcat.partitions import (
    Partition,
    check_partition,
    conjugate,
    contains,
    durfee,
    is_int,
    sub_partitions,
)

# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients


def lr_coefficient(lam, mu, nu) -> int:
    """c^lam_{mu,nu}: LR skew tableaux of shape lam/mu and content nu.

    Zero whenever |mu| + |nu| != |lam| or mu does not fit inside lam.
    """
    return _lr(check_partition(lam), check_partition(mu), check_partition(nu))


def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """lr_coefficient on partitions the library built: no validation.

    By c^lam_{mu,nu} = c^lam_{nu,mu}, the fill is lam/(larger) with the
    smaller content, so the cache sees one key per unordered pair.
    """
    if sum(mu) + sum(nu) != sum(lam) or not contains(lam, mu) or not contains(lam, nu):
        return 0
    small, large = sorted((mu, nu), key=lambda p: (sum(p), p))
    return _count_lr_tableaux(lam, large, small)


def _meet(lam: Partition, mu: Partition) -> Partition:
    """lam ∩ mu: the largest partition inside both."""
    return tuple(min(a, b) for a, b in zip(lam, mu))


@lru_cache(maxsize=1 << 16)
def _count_lr_tableaux(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Backtracking fill of lam/mu with content nu, in reading order
    (right-to-left within each row).

    The bound keeps the cache finite; one `stable` benchmark round fills
    about a thousand keys.
    """
    rows = len(lam)
    mu_pad = mu + (0,) * (rows - len(mu))
    nrows = len(nu)
    cells = []  # reading order
    for i in range(rows):
        for j in range(lam[i] - 1, mu_pad[i] - 1, -1):
            cells.append((i, j))
    if not cells:
        return 1
    filling: dict[tuple[int, int], int] = {}
    remaining = list(nu)
    counts = [0] * nrows  # letters placed so far, by value
    total = 0

    def legal(i: int, j: int, v: int) -> bool:
        if remaining[v] == 0:
            return False
        if v > 0 and counts[v - 1] <= counts[v]:
            return False  # lattice word property
        right = filling.get((i, j + 1))
        if right is not None and v > right:
            return False  # rows weakly increase left to right
        above = filling.get((i - 1, j))
        if above is not None and v <= above:
            return False  # columns strictly increase
        return True

    def rec(pos: int):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        for v in range(nrows):
            if legal(i, j, v):
                filling[(i, j)] = v
                remaining[v] -= 1
                counts[v] += 1
                rec(pos + 1)
                counts[v] -= 1
                remaining[v] += 1
                del filling[(i, j)]

    rec(0)
    return total


def skew_schur_pairing(lam, nu, mu, nubar) -> int:
    """Hall pairing (s_{lam/nu}, s_{mu/nubar}) = sum_eta c^lam_{nu,eta} c^mu_{nubar,eta}."""
    lam, nu = check_partition(lam), check_partition(nu)
    mu, nubar = check_partition(mu), check_partition(nubar)
    weight = sum(lam) - sum(nu)
    if weight != sum(mu) - sum(nubar):
        return 0
    total = 0
    for eta in sub_partitions(_meet(lam, mu), weight):
        left = _lr(lam, nu, eta)
        if left:
            total += left * _lr(mu, nubar, eta)
    return total


def gl_mixed_multiplicity(lam, mu, nu, nubar) -> int:
    """Multiplicity of the mixed irreducible (nu, nubar) in V_lam (x) V_mu^*.

    Stable-range semantics: this is the large-n value; no n argument exists.
    """
    return skew_schur_pairing(lam, nu, mu, nubar)


def osp_multiplicity(lam, mu, nu) -> int:
    """Newell-Littlewood number: sum c^lam_{z,s} c^mu_{z,t} c^nu_{s,t}.

    Stable-range multiplicity of V_nu in V_lam (x) V_mu for the orthogonal
    and symplectic series.
    """
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    doubled = sum(lam) + sum(mu) - sum(nu)
    if doubled % 2:
        return 0
    return sum(
        _nl_inner(lam, zeta, mu, zeta, nu)
        for zeta in sub_partitions(_meet(lam, mu), doubled // 2)
    )


def _nl_inner(lam, eta, mu, eta_bar, nu) -> int:
    """sum_{sigma,tau} c^lam_{eta,sigma} c^mu_{eta_bar,tau} c^nu_{sigma,tau}."""
    total = 0
    taus = sub_partitions(_meet(mu, nu), sum(mu) - sum(eta_bar))
    for sigma in sub_partitions(_meet(lam, nu), sum(lam) - sum(eta)):
        left = _lr(lam, eta, sigma)
        if not left:
            continue
        for tau in taus:
            mid = _lr(mu, eta_bar, tau)
            if mid:
                total += left * mid * _lr(nu, sigma, tau)
    return total


# ---------------------------------------------------------------------------
# triple representation [alpha, beta, gamma]


@dataclass(frozen=True)
class TriplePartition:
    """A partition cut below row k and right of column l.

    alpha holds the first k rows past the cut column, beta the first l
    columns past the cut row (as a partition of column lengths), gamma the
    remainder below-right of both cuts.
    """

    alpha: Partition
    beta: Partition
    gamma: Partition
    k: int
    l: int


def triple_encode(lam, k: int, l: int) -> TriplePartition:
    """Cut lam into [alpha, beta, gamma] at row k and column l."""
    lam = check_partition(lam)
    conj = conjugate(lam)
    if k < 0 or l < 0:
        raise ValueError("cuts must be nonnegative")
    d = durfee(lam)
    if k > d:
        raise ValueError(f"row cut k = {k} exceeds the diagonal length d = {d}")
    if l > d:
        raise ValueError(f"column cut l = {l} exceeds the diagonal length d = {d}")
    if k > 0 and (len(lam) < k or lam[k - 1] < l + 1):
        raise ValueError(f"row cut k = {k} leaves alpha with fewer than k rows")
    if l > 0 and (len(conj) < l or conj[l - 1] < k + 1):
        raise ValueError(f"column cut l = {l} leaves beta with fewer than l columns")
    alpha = tuple(lam[i] - l for i in range(k))
    beta = tuple(conj[j] - k for j in range(l))
    gamma_len = (conj[l] if l < len(conj) else 0) - k
    gamma = tuple(lam[k + i] - l for i in range(max(0, gamma_len)))
    return TriplePartition(alpha, beta, gamma, k, l)


def _rows_from_triple(alpha, beta, gamma) -> Partition:
    """Rows of the decoded partition, cut at k = len(alpha) and l =
    len(beta); alpha/beta entries may include zeros."""
    l = len(beta)
    rows = [a + l for a in alpha]
    depth = max(len(gamma), max(beta) if beta else 0)
    for i in range(1, depth + 1):
        g = gamma[i - 1] if i <= len(gamma) else 0
        rows.append(g + sum(1 for b in beta if b >= i))
    while rows and rows[-1] == 0:
        rows.pop()
    if any(a < b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"triple does not decode to a partition: rows {rows}")
    return tuple(rows)


def triple_decode(tp: TriplePartition) -> Partition:
    """Inverse of triple_encode; validates the constraints.  Constraints 1,
    3 and 5 imply constraint 2, len(gamma) = lam'_{l+1} - k: rows 1..k are
    alpha_i + l > l, row k + i is gamma_i + l > l for i <= len(gamma) <=
    beta_l, and every later row is at most l."""
    alpha, beta, gamma = tp.alpha, tp.beta, tp.gamma
    if len(alpha) != tp.k:
        raise ValueError("constraint 1 violated: k must equal the length of alpha")
    if len(beta) != tp.l:
        raise ValueError("constraint 1 violated: l must equal the length of beta")
    for part in (alpha, beta, gamma):
        check_partition(part)
    # the two inequalities are vacuous on a side whose cut is 0: everything
    # below (resp. right of) a zero cut belongs to gamma
    if gamma and tp.k and gamma[0] > alpha[-1]:
        raise ValueError("constraint 5 violated: gamma_1 must not exceed alpha_k")
    if gamma and tp.l and len(gamma) > beta[-1]:
        raise ValueError("constraint 5 violated: gamma'_1 must not exceed beta_l")
    lam = _rows_from_triple(alpha, beta, gamma)
    if tp.l > durfee(lam) or tp.k > durfee(lam):
        raise ValueError("constraint 1 violated: cuts must not exceed the diagonal")
    return lam


# ---------------------------------------------------------------------------
# stabilized Harish-Chandra multiplicity


@dataclass(frozen=True)
class ShiftData:
    """Fixed data of the stabilized multiplicity: integer shifts and tails."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    gamma: Partition
    delta: Partition

    def __post_init__(self):
        for name in ("a", "b"):
            shifts = tuple(getattr(self, name))
            if not all(is_int(x) for x in shifts):
                raise ValueError(f"shift {name} = {shifts!r} must be integers")
            object.__setattr__(self, name, tuple(int(x) for x in shifts))
        object.__setattr__(self, "gamma", check_partition(self.gamma))
        object.__setattr__(self, "delta", check_partition(self.delta))

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def l(self) -> int:
        return len(self.b)


def _vectors_with_sum(lowers: tuple[int, ...], total: int):
    """Integer vectors v >= lowers componentwise with sum(v) = total."""
    if not lowers:
        if total == 0:
            yield ()
        return
    rest = lowers[1:]
    for v in range(lowers[0], total - sum(rest) + 1):
        for tail in _vectors_with_sum(rest, total - v):
            yield (v,) + tail


def _tilde(c, d, tail: Partition, eps: Partition) -> tuple[Partition, Partition]:
    """(lam~, eta~) for the arms c, d over tail.

    lam~ = [alpha~, beta~, tail] with suffix-sum arms alpha~_i = tail_1 +
    c_i + ... + c_k and beta~_j = tail'_1 + d_j + ... + d_l; eta~ =
    [alpha~ - c, beta~ - d, eps].
    """
    k, l = len(c), len(d)
    alpha = tuple((tail[0] if tail else 0) + sum(c[i:]) for i in range(k))
    beta = tuple(len(tail) + sum(d[j:]) for j in range(l))
    lam = _rows_from_triple(alpha, beta, tail)
    alpha = tuple(x - y for x, y in zip(alpha, c))
    beta = tuple(x - y for x, y in zip(beta, d))
    return lam, _rows_from_triple(alpha, beta, eps)


def _hc_sum(shift: ShiftData, nu, flavor: str):
    """(base, term) of the sum that stable_hc_multiplicity takes, or
    (None, None) when its weights do not balance and it is empty.

    Both flavors sum one term over eps inside gamma ∩ delta and over arms
    (c, d) >= max(0, -(a, b)) of weight |c| + |d| = base + |eps|; the flavor
    fixes base and the term.
    """
    a, b, gamma, delta = shift.a, shift.b, shift.gamma, shift.delta
    if flavor == "gl":
        nu, nubar = check_partition(nu[0]), check_partition(nu[1])
        # |c| + |d| = |nu| - |gamma| + |eps| = |nubar| - |a| - |b| - |delta| + |eps|
        base = sum(nu) - sum(gamma)
        if base != sum(nubar) - sum(a) - sum(b) - sum(delta):
            return None, None

        def term(lam, eta, mu, eta_bar):
            left = _lr(lam, eta, nu)
            return left and left * _lr(mu, eta_bar, nubar)

    elif flavor == "osp":
        nu = check_partition(nu)
        # 2(|c| + |d|) + |a| + |b| + |gamma| + |delta| - 2|eps| = |nu|
        doubled = sum(nu) - sum(a) - sum(b) - sum(gamma) - sum(delta)
        if doubled % 2:
            return None, None
        base = doubled // 2

        def term(lam, eta, mu, eta_bar):
            return _nl_inner(lam, eta, mu, eta_bar, nu)

    else:
        raise ValueError(f"unknown flavor {flavor!r} (expected 'gl' or 'osp')")
    return base, term


def stable_hc_multiplicity(shift: ShiftData, nu, flavor: str = "gl") -> int:
    """The eventually-constant multiplicity attached to the shift data.

    flavor "gl": nu is a pair (nu, nubar) of partitions; flavor "osp": nu is
    a single partition.  The value equals the direct formula evaluated on
    any instantiation with row gaps above the stated threshold.  The sum is
    _hc_sum's, and stable_hc_terms counts its terms.
    """
    base, term = _hc_sum(shift, nu, flavor)
    if base is None:
        return 0
    a, b, gamma, delta = shift.a, shift.b, shift.gamma, shift.delta
    k, shifts = len(a), a + b
    lows = tuple(max(0, -x) for x in shifts)
    total = 0
    for eps in sub_partitions(_meet(gamma, delta)):
        for arms in _vectors_with_sum(lows, base + sum(eps)):
            lam, eta = _tilde(arms[:k], arms[k:], gamma, eps)
            moved = tuple(x + y for x, y in zip(arms, shifts))
            mu, eta_bar = _tilde(moved[:k], moved[k:], delta, eps)
            total += term(lam, eta, mu, eta_bar)
    return total


def stable_hc_terms(shift: ShiftData, nu, flavor: str = "gl") -> int:
    """The number of terms stable_hc_multiplicity sums, without visiting
    any: for each eps, the arm vectors >= lows of weight base + |eps|, that
    is C(w + n - 1, n - 1) with w = base + |eps| - sum(lows) >= 0 over n
    arms (one, the empty vector, when n = 0 and w = 0)."""
    base, _ = _hc_sum(shift, nu, flavor)
    if base is None:
        return 0
    shifts = shift.a + shift.b
    n, low = len(shifts), sum(max(0, -x) for x in shifts)
    total = 0
    for eps in sub_partitions(_meet(shift.gamma, shift.delta)):
        w = base + sum(eps) - low
        if w >= 0:
            total += math.comb(w + n - 1, n - 1) if n else w == 0
    return total


def shift_instance(shift: ShiftData, n: int) -> tuple[Partition, Partition]:
    """An explicit (lam, mu) pair realizing the shift data with row gaps ~ n.

    For n above |nu| + |nubar| the direct multiplicity formulas on this pair
    equal stable_hc_multiplicity: the testable form of stabilization.
    """
    base = max(
        [1]
        + [abs(x) for x in shift.a]
        + [abs(x) for x in shift.b]
        + list(shift.gamma[:1])
        + list(shift.delta[:1])
    )
    k, l = shift.k, shift.l
    alpha = tuple(base + (k - i) * n for i in range(k))
    beta = tuple(base + (l - i) * n for i in range(l))
    lam = _rows_from_triple(alpha, beta, shift.gamma)
    alpha_mu = tuple(x + y for x, y in zip(alpha, shift.a))
    beta_mu = tuple(x + y for x, y in zip(beta, shift.b))
    mu = _rows_from_triple(alpha_mu, beta_mu, shift.delta)
    return lam, mu


# ---------------------------------------------------------------------------
# central character moments

MAX_SEARCH_BOX = 10**5

# Highest moment degree any entry point takes.  At it, forward moments of
# ten entries take about 15 ms, and a search at MAX_SEARCH_BOX keyed on
# degrees 48..50 0.3 to 0.9 s on a 2-CPU VM, against 0.2 to 0.6 s on
# degrees 1..3.
MAX_MOMENT_DEGREE = 50

# Largest K * (sum over the entries p/q of the bit length of |p| + q) that
# char_difference_forward takes.  Over the common denominator of the q^k, a
# degree-k moment of n entries has at most k * that sum + 1 + bitlen(n) bits
# in its numerator and denominator, and n is at most the sum, so at this
# limit every moment stays under the 4300 decimal digits Python prints by
# default.  At K = 50 one entry up to 10^84 passes.
MAX_MOMENT_BITS = 14_000


def _check_degree(K: int) -> None:
    if K > MAX_MOMENT_DEGREE:
        raise ValueError(
            f"moment degree budget exceeded: {K} > MAX_MOMENT_DEGREE = {MAX_MOMENT_DEGREE}"
        )


def pk(x, k: int) -> Fraction:
    """P_k(x) = (x+1)^k - x^k."""
    x = Fraction(x)
    return (x + 1) ** k - x**k


def pbark(x, k: int) -> Fraction:
    """P-bar_k(x) = (x-1)^k - x^k."""
    x = Fraction(x)
    return (x - 1) ** k - x**k


def _moment(b, c, k: int) -> Fraction:
    """sum_i P_k(b_i) + sum_j P-bar_k(c_j)."""
    return sum(pk(x, k) for x in b) + sum(pbark(x, k) for x in c)


@dataclass
class MomentSequence:
    """Moments of a central-character difference; osp forces odd moments to 0."""

    flavor: str
    values: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.flavor not in ("gl", "osp"):
            raise ValueError("moment flavor must be 'gl' or 'osp'")
        clean = {}
        for k, v in self.values.items():
            k = int(k)
            v = Fraction(v)
            if k < 1:
                raise ValueError(f"moment degrees start at 1 (k={k})")
            if self.flavor == "osp" and k % 2 and v != 0:
                raise ValueError(f"osp moment sequences vanish in odd degree (k={k})")
            clean[k] = v
        self.values = clean


def char_difference_forward(b, c, flavor: str = "gl", K: int = 6) -> MomentSequence:
    """Moments m_k of the central-character difference attached to (b, c).

    gl: m_k = sum P_k(b_i) + sum P-bar_k(c_j) for 1 <= k <= K.
    osp: only b is allowed; odd moments are 0 and even ones sum P_k(b_i).
    K above MAX_MOMENT_DEGREE, and entries too long for K (MAX_MOMENT_BITS),
    are refused up front.
    """
    _check_degree(K)
    b = tuple(Fraction(x) for x in b)
    c = tuple(Fraction(x) for x in c)
    if flavor == "osp" and c:
        raise ValueError("osp central characters take no c parameters")
    bits = K * sum((abs(x.numerator) + x.denominator).bit_length() for x in b + c)
    if bits > MAX_MOMENT_BITS:
        raise ValueError(
            f"moment size budget exceeded: K times the entry bit lengths is {bits}"
            f" > MAX_MOMENT_BITS = {MAX_MOMENT_BITS}"
        )
    values = {
        k: Fraction(0) if flavor == "osp" and k % 2 else _moment(b, c, k)
        for k in range(1, K + 1)
    }
    return MomentSequence(flavor, values)


def weight_moment_difference(mu, moved_up, moved_down, K: int = 6) -> MomentSequence:
    """Moment difference when some coordinates of mu move up/down by one.

    moved_up and moved_down are disjoint 1-based index sets.  P_k(x) =
    (x + 1)^k - x^k and P-bar_k(x) = (x - 1)^k - x^k, so the result is the
    power-sum difference of the shifted weight minus that of mu, term by
    term.  K above MAX_MOMENT_DEGREE is refused up front.
    """
    _check_degree(K)
    mu = tuple(Fraction(x) for x in mu)
    up = set(int(i) for i in moved_up)
    down = set(int(i) for i in moved_down)
    if up & down:
        raise ValueError(f"moved_up and moved_down overlap: {sorted(up & down)}")
    for i in up | down:
        if not 1 <= i <= len(mu):
            raise ValueError(f"index {i} outside the weight of length {len(mu)}")
    b = [mu[i - 1] for i in up]
    c = [mu[i - 1] for i in down]
    return MomentSequence("gl", {k: _moment(b, c, k) for k in range(1, K + 1)})


def search_decomposition(
    m: MomentSequence, r: int, s: int, bound: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Bounded integer search for (b, c) with the given forward moments.

    Entries run over [-bound, bound]; vectors are returned sorted (the
    moments cannot see the order).  None means no integer solution in the
    box, which is a valid answer.  A box of more than MAX_SEARCH_BOX
    candidate pairs, C(2 bound + r, r) C(2 bound + s, s), is refused up
    front, as is a moment degree above MAX_MOMENT_DEGREE.

    The c's are bucketed, in order, by their integer key: the sums of
    P-bar_k(c_j) for k in the first r + s + 2 kept degrees, added up from
    one row of values per candidate entry.  Each b, in order, looks up the
    target minus its own key, and each c in that bucket is confirmed on
    every degree.  A c that matches on every degree is in
    the bucket, so the answer is the first pair in lexicographic order, as
    a walk over all pairs would find; the budget still counts the pairs.
    """
    if m.flavor == "osp" and s:
        raise ValueError("osp searches take s = 0")
    needed = r + s + 2
    if len(m.values) < needed:
        raise ValueError(f"need at least r + s + 2 = {needed} moments, got {len(m.values)}")
    if min(r, s, bound) < 0:
        raise ValueError("r, s and bound must be non-negative")
    _check_degree(max(m.values, default=0))
    side = 2 * bound
    box = math.comb(side + r, r) * math.comb(side + s, s)
    if box > MAX_SEARCH_BOX:
        raise ValueError(f"search budget exceeded: {box} candidates > {MAX_SEARCH_BOX}")
    candidates = range(-bound, bound + 1)
    ks = [k for k in sorted(m.values) if not (m.flavor == "osp" and k % 2)]
    key_ks = ks[:needed]
    zero = [0] * len(key_ks)  # starts every key sum: the empty vector keys to zeros

    def keyed(length: int, shift: int):
        """Each vector of `length` candidates, in order, with its key: over
        k in key_ks, the sum of (x + shift)^k - x^k over its entries x."""
        # one row per candidate value; none when the vectors are empty
        entries = candidates if length else ()
        rows = {x: [(x + shift) ** k - x**k for k in key_ks] for x in entries}
        for v in itertools.combinations_with_replacement(candidates, length):
            yield v, tuple(map(sum, zip(zero, *map(rows.__getitem__, v))))

    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for c, key in keyed(s, -1):
        buckets.setdefault(key, []).append(c)
    # int arithmetic for integral targets; a non-integral one matches no key
    target = [v.numerator if v.denominator == 1 else v for v in map(m.values.get, key_ks)]
    for b, key in keyed(r, 1):
        for c in buckets.get(tuple(map(operator.sub, target, key)), ()):
            if all(_moment(b, c, k) == m.values[k] for k in ks):
                return b, c
    return None
