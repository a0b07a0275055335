"""Exact dimensions of irreducible SO(n) modules.

Irreducible modules of SO(n, C) are indexed by nonincreasing half-integer
sequences mu = (mu_1, ..., mu_m), m = floor(n/2), with mu_m >= 0 when n is
odd and mu_{m-1} >= |mu_m| when n is even.  The dimension is the product

    n = 2m+1:  prod_{i<j} (mu_i - mu_j + j - i)/(j - i)
               * prod_{i<=j} (mu_i + mu_j + n - i - j)/(n - i - j)

    n = 2m:    prod_{i<j} (mu_i - mu_j + j - i)/(j - i)
                          * (mu_i + mu_j + n - i - j)/(n - i - j)

Everything here runs in exact big-integer arithmetic: weights are stored
as doubled integers so half-integral entries stay exact, and they print from
those integers (d as ``d // 2`` when even, ``d/2`` when odd, the text
``Fraction(d, 2)`` gives); the dimension is one integer product over the
positive roots in the doubled lam+rho coordinates, divided by the same
product at lam = 0 and checked to divide exactly.  The two products are
never multiplied out: each factor l_i -+ l_j is counted by its value, a run
of equal entries at a time, lam's counts less rho's, and only the factors
that survive the cancellation are multiplied: the work is O(m) progressions
per run of equal entries, not m^2/2 big-integer products.  Floating point
is deliberately absent, and ``Fraction`` is used only to parse entries and
caps and for ``mu1_cap``.

The classification walk never multiplies out a full product.  It visits
weights whose leading run of K equal entries rises by 2 at each step, and
that shift drops the lead's lowest coordinate l_K and adds l_1 + 2, so the
new dimension is the old one times an exact ratio of short progressions
(``_lead_step``).  Its two roots, the zero weight and (1/2, ..., 1/2), have
the closed dimensions 1 and the spin dimension.  Every Weyl factor
<lam+rho, alpha>/<rho, alpha> grows when a dominant weight is added to lam,
so a branch whose smallest weight already exceeds the cutoff holds no hit.
The same growth gives each raise of a leading run of K entries the floor
dim(1^K) = C(n, K) (halved at K = m for even n): where that closed form
exceeds the cutoff, the walk prunes without multiplying out the step.
Along every branch the dimension grows without bound: the walk needs no box,
and the classification below the dimension of the traceless symmetric
matrices, (n-1)(n+2)/2, is proven by the walk itself.  The comparison
weights of that proof, (1^q) and (2, 1^{q-1}), have the classical closed
forms C(n, q) and q C(n+1, q+1) - C(n, q-1) (El Samra & King, J. Phys. A
12, 1979), halved for the chiral halves at q = m for even n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb, prod
from typing import Sequence

from .errors import (
    HypothesisViolated,
    IndexOutOfRange,
    MixedParity,
    NotDominant,
    ValidationError,
    _at_least,
    _entries,
    _index,
)
from .flagcore import _prechecked


@dataclass(frozen=True)
class HighestWeight:
    """A dominant weight for SO(n), stored as doubled integers.

    ``doubled[i] = 2 * mu_{i+1}``; all entries share one parity (all even
    for integral weights, all odd for spin weights).
    """

    n: int
    doubled: tuple[int, ...]

    def __post_init__(self):
        n = _index(self.n, "n")  # both are integers before n's range is checked
        d = tuple(_index(x, "doubled weight entry") for x in _entries(self.doubled, "doubled weight entries"))
        object.__setattr__(self, "doubled", d)
        object.__setattr__(self, "n", _at_least(n, "n", 3, NotDominant))
        m = self.n // 2
        if len(d) != m:
            raise NotDominant(f"need {m} entries for n={self.n}, got {len(d)}")
        if len({x % 2 for x in d}) > 1:
            raise MixedParity(f"entries mix integers and half-integers: {self._pretty(d)}")
        if any(a < b for a, b in zip(d, d[1:])):
            raise NotDominant(f"entries must be nonincreasing: {self._pretty(d)}")
        if self.n % 2 == 1 and d[-1] < 0:
            raise NotDominant(f"last entry must be >= 0 for odd n: {self._pretty(d)}")
        if self.n % 2 == 0 and d[-2] < abs(d[-1]):  # even n >= 4, so m >= 2
            raise NotDominant(f"need mu_{m - 1} >= |mu_{m}| for even n: {self._pretty(d)}")

    @staticmethod
    def _pretty(doubled: Sequence[int]) -> str:
        """The entries d/2 as ``str(Fraction(d, 2))`` prints them, from the
        doubled ints: d // 2 when d is even, ``d/2`` when it is odd."""
        return ",".join(f"{d}/2" if d % 2 else str(d // 2) for d in doubled)

    @property
    def is_spin(self) -> bool:
        return self.doubled[0] % 2 == 1

    def __str__(self) -> str:
        return self._pretty(self.doubled)

    @classmethod
    def from_halves(cls, n: int, values: Sequence) -> "HighestWeight":
        return cls(n, tuple(_doubled_entry(v) for v in _entries(values, "weight entries")))


def _doubled_entry(v) -> int:
    """2v for one weight entry v: a number, or a string like ``1/2``."""
    try:
        f = 2 * Fraction(v)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as e:  # an unparsable string, x/0, NaN, inf, None
        raise ValidationError(f"bad weight entry {v!r}: {e}") from None
    if f.denominator != 1:
        raise MixedParity(f"entry {v!r} is not an integer or half-integer")
    return int(f)


def parse_weight(n: int, text: str) -> HighestWeight:
    """Parse the CLI weight syntax: comma-separated entries, each an integer
    or a fraction like ``1/2``.  Integral weights shorter than m are padded
    with trailing zeros; spin weights must be given in full since padding
    would mix parities."""
    n = _index(n, "n")
    if not isinstance(text, str):
        raise ValidationError(f"weight must be a string, got {type(text).__name__}")
    entries = [t.strip() for t in text.split(",") if t.strip()]
    if not entries:
        raise ValidationError("empty weight")
    doubled = [_doubled_entry(t) for t in entries]
    m = n // 2
    if len(doubled) < m:
        if any(d % 2 for d in doubled):
            raise MixedParity(
                f"spin weight needs all {m} entries for n={n}; zero-padding would mix parities"
            )
        doubled.extend([0] * (m - len(doubled)))
    return HighestWeight(n, tuple(doubled))


def weyl_dim(w: HighestWeight) -> int:
    """Dimension of the irreducible SO(n, C) module with highest weight w.

    The product over the positive roots in the doubled lam+rho coordinates
    l_i = doubled[i-1] + n - 2i, prod_{i<j} (l_i - l_j)(l_i + l_j) times
    prod_i l_i for odd n, over the same product at lam = 0 (the halves of
    each <lam+rho, alpha> cancel).  Both are counted by value
    (``_count_factors``), lam's less rho's, and only the factors that survive
    are multiplied; the division is required to be exact, never rounded.
    """
    n = w.n
    ends: dict[int, int] = {}
    _count_factors(ends, n, w.doubled, 1)
    _count_factors(ends, n, (0,) * (n // 2), -1)
    num = den = 1
    exponent, start = [0, 0], [0, 0]  # per parity: the count of each value from start on
    for v in sorted(ends):
        p = v % 2
        e = exponent[p]
        if e > 0:
            num *= prod(range(start[p], v, 2)) ** e
        elif e < 0:
            den *= prod(range(start[p], v, 2)) ** -e
        exponent[p], start[p] = e + ends[v], v
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"dimension product is not integral for weight {w}")
    if q <= 0:
        raise ArithmeticError(f"dimension product is not positive for weight {w}")
    return q


def _count_factors(ends: dict[int, int], n: int, doubled: Sequence[int], c: int) -> None:
    """Add c to the count of each factor of the positive-root product at the
    doubled weight, a stride-2 progression a, a + 2, ..., b at a time: c at a
    and -c at b + 2 of ``ends``, whose running sum per parity is the count.
    Within a run of equal entries l_j steps down by 2, so the factors
    l_i -+ l_j of one l_i against a run are two progressions, and for odd n
    the run's own l_j are one: O(m x runs) progressions, not m^2/2 factors,
    each factor positive for a dominant weight.  ``ends`` is keyed by value,
    not an array up to the largest, whose length would follow the entries."""
    l = [d + n - 2 * i for i, d in enumerate(doubled, 1)]
    runs, s = [], 0
    while s < len(l):
        runs.append((s, s + doubled.count(doubled[s])))  # nonincreasing, so the copies are one run
        s = runs[-1][1]

    def add(a, b):
        ends[a] = ends.get(a, 0) + c
        ends[b + 2] = ends.get(b + 2, 0) - c

    for r, (s, e) in enumerate(runs):
        if n % 2:
            add(l[e - 1], l[s])
        for i in range(s, e):
            for t, u in [(i + 1, e)] + runs[r + 1:]:
                if t < u:
                    add(l[i] - l[t], l[i] - l[u - 1])
                    add(l[i] + l[u - 1], l[i] + l[t])


def _lead_step(n: int, K: int, v: int, runs: tuple | None) -> tuple[int, int]:
    """(p, q) with dim(w') q = dim(w) p, for the dominant weights
    w = (v,)*K + suffix and w' = (v+2,)*K + suffix, doubled, with
    suffix[0] <= v, every entry >= 0 and suffix given as ``_walk``'s runs.

    The lead coordinates l_i = v + n - 2i, i = 1..K, step by 2, so raising
    them all by 2 drops L = l_K and adds U = l_1 + 2; every other factor of
    the positive-root product (``weyl_dim``) is unchanged.  Against the lead
    l_i = U - 2i, i < K, the ratio (U^2 - l_i^2)/(l_i^2 - L^2) is
    (U - i)/(U - K - i) after the 2s cancel; against a suffix coordinate l_j
    it is (U^2 - l_j^2)/(L^2 - l_j^2), and a run of c equal entries makes
    each of U -+ l_j and L -+ l_j a progression in j.  U and L differ by 2K,
    so U -+ l_j and L -+ l_j share all but min(c, K) terms, which cancel:
    U - l_j keeps its top terms and L - l_j its bottom ones, U + l_j its top
    and L + l_j its bottom, and a run costs O(K), not O(c).  For odd n the
    short root adds U/L.  Every factor is positive: the result is exact and
    has no floating point."""
    U = v + n
    L = U - 2 * K
    p, q = prod(range(U - K + 1, U)), prod(range(L + 1, U - K))
    if n % 2:
        p, q = p * U, q * L
    j = K + 1  # the index of the run's first entry
    while runs:
        s, c, runs = runs  # a count-0 cell gives empty progressions, no factor
        hi = s + n - 2 * j  # l_j at the run's first j, then down by 2
        lo = hi - 2 * (c - 1)
        k = 2 * min(c, K)  # twice the terms left of each progression
        p *= prod(range(U - lo - k + 2, U - lo + 1, 2)) * prod(range(U + hi - k + 2, U + hi + 1, 2))
        q *= prod(range(L - hi, L - hi + k, 2)) * prod(range(L + lo, L + lo + k, 2))
        j += c
    return p, q


def fundamental_weight(n: int, i: int) -> HighestWeight:
    """The i-th fundamental weight of SO(n), 1 <= i <= m.

    For odd n the last one is the spin weight (1/2, ..., 1/2); for even n
    the last two are the half-spin weights (1/2, ..., 1/2, -/+ 1/2).
    Each is m ints of one parity, nonincreasing, with a nonnegative last
    entry or (n even, so m >= 2) d_{m-1} >= |d_m|: dominant, so it is built
    without the validator.
    """
    n, i = _at_least(n, "n", 3, HypothesisViolated), _index(i, "i")
    m = n // 2
    if not 1 <= i <= m:
        raise IndexOutOfRange(f"fundamental weight index {i} outside 1..{m}")
    if i < m - 1 + n % 2:
        doubled = (2,) * i + (0,) * (m - i)
    else:
        doubled = (1,) * (m - 1) + (1 if i == m else -1,)
    return _prechecked(HighestWeight, n=n, doubled=doubled)


def spin_dimension(n: int) -> int:
    """2^{(n-1)//2}, 2^m for n = 2m+1 and 2^{m-1} for n = 2m: the spin module
    dimension, equal to weyl_dim at the spin fundamental weight(s)."""
    return _spin_dim(_at_least(n, "n", 3, HypothesisViolated))


def _spin_dim(n: int) -> int:
    return 2 ** ((n - 1) // 2)


def single_row_dim(n: int, s: int) -> int:
    """Closed form for the single-row weight (s, 0, ..., 0), for both
    parities of n:

        (1 + 2s/(n-2)) * C(n-3+s, s)

    Must agree with weyl_dim on the same weight; kept separate so the two
    routes check each other.
    """
    return _single_row(_at_least(n, "n", 5, HypothesisViolated), _at_least(s, "s", 0))


def _single_row(n: int, s: int) -> int:
    val, r = divmod((n - 2 + 2 * s) * comb(n - 3 + s, s), n - 2)
    if r != 0:
        raise ArithmeticError(f"single-row dimension is not integral for n={n}, s={s}")
    return val


@dataclass(frozen=True)
class EnumerationHit:
    """One dominant weight found at or below the dimension cutoff.

    ``real_form`` records whether the complex dimension is guaranteed to
    equal the real dimension (trailing entry zero for odd n, trailing two
    entries zero for even n); hits without that guarantee are reported at
    the complexified level.  ``sign_pair`` marks even-n weights whose
    mirror (sign-flipped last entry) is a distinct weight of the same
    dimension, reported once.
    """

    weight: HighestWeight
    dimension: int
    real_form: bool
    sign_pair: bool

    @property
    def spin(self) -> bool:
        return self.weight.is_spin


@dataclass(frozen=True)
class EnumerationReport:
    """The hits of one enumeration, plus how much walking it took.

    The walk covers both parities, first entry at most ``mu1_cap`` (``None``:
    no cap), and (for even n) both signs of the last entry.  ``visited``
    counts the weights the walk reached and ``pruned`` the ones among them
    that exceeded ``max_dim`` and so cut their branch; ``floor_pruned`` counts
    the pruned ones whose closed-form floor exceeded ``max_dim``, so that
    their dimension was never evaluated.  All three describe the walk, not
    its result: they are left out of ``repr`` and equality.
    """

    n: int
    max_dim: int
    hits: tuple[EnumerationHit, ...]
    mu1_cap: Fraction | None
    visited: int = field(repr=False, compare=False)
    pruned: int = field(repr=False, compare=False)
    floor_pruned: int = field(repr=False, compare=False)


def _doubled_cap(mu1_cap) -> int | None:
    """2 mu1_cap, refused unless mu1_cap is a half-integer >= 2; None, no cap, for None."""
    if mu1_cap is None:
        return None
    try:
        cap = _doubled_entry(mu1_cap)
    except ValidationError:
        cap = 0  # refused below, with the message that names mu1_cap
    if cap < 4:
        raise ValidationError(f"mu1_cap must be a half-integer >= 2, got {mu1_cap!r}")
    return cap


def enumerate_low_dim(n: int, max_dim: int, mu1_cap=4) -> EnumerationReport:
    """List every dominant weight with mu_1 <= mu1_cap whose module
    dimension is at most max_dim; with ``mu1_cap=None``, every one.

    Both parities are walked depth first, fixing the doubled entries from
    the last to the first, each from its parity up and nonincreasing.  A
    node with entries k..m-1 fixed is evaluated at its smallest completion,
    the weight that repeats entry k in every open leading position.  Every
    weight below the node, and the smallest completion of every larger value
    at position k, is that completion plus a dominant weight.  Each Weyl
    factor <lam+rho, alpha>/<rho, alpha> grows when a dominant weight is
    added to lam, so once the completion exceeds max_dim the rest of that
    position's values are cut without losing a hit.  The first child of a
    node repeats its parent's completion and is not evaluated again; each
    larger value is its predecessor with the leading run of K entries raised
    by 2, whose dimension ``_lead_step`` gives exactly.  That raise adds the
    dominant weight (1^K, 0, ..., 0), so the new dimension is at least the
    closed form dim(1^K) = ``_wedge_dim(n, K)``; where that floor already
    exceeds max_dim the value is pruned without the step (``_floored``).
    The dimension grows without bound in the value, so the pruning ends
    every value loop and the cap is only a box a caller may ask for: without
    it the walk lists every hit.

    For even n the walk keeps the last entry >= 0.  A hit whose last entry
    is positive stands for itself and its mirror, the weight with that entry
    negated: the positive-root product holds l_m = d_m only in the factors
    (l_i - l_m)(l_i + l_m) = l_i^2 - l_m^2, so the two have the same
    dimension, and the pair is reported once with ``sign_pair`` set.
    Hits are sorted by dimension, then lexicographically.
    """
    n = _at_least(n, "n", 3, HypothesisViolated)
    return _walk(n, _index(max_dim, "max_dim"), _doubled_cap(mu1_cap))


def _walk(n: int, max_dim: int, cap: int | None) -> EnumerationReport:
    """``enumerate_low_dim`` for trusted n >= 3, an int max_dim and a doubled
    cap >= 4 or None."""
    hits = []
    # A node fixes entry k above the fixed entries `runs`, cells (s, c, rest)
    # of c copies of s and then rest, which a push shares and never copies;
    # it starts from lo = runs[0], and `dim` is the dimension of the smallest
    # completion at lo.  The roots, the zero weight and (1/2, ..., 1/2), are
    # empty cells with the closed dimensions 1 and the spin dimension; every
    # other node with one that its parent evaluated and kept.  So one test
    # prunes every evaluated node, and at v == lo only a root can fail it; a
    # raise whose floor exceeds max_dim is pruned before it is evaluated.  A
    # completion (m nonincreasing ints >= 0 of one parity) is dominant, so it
    # and each hit, a completion, are built without the validator.
    floored = _floored(n, max_dim)
    todo = [(n // 2 - 1, (lo, 0, None), dim) for lo, dim in ((0, 1), (1, _spin_dim(n)))]
    visited, pruned, floor_pruned = len(todo), 0, 0
    while todo:
        k, runs, dim = todo.pop()
        lo, c, rest = runs
        for v in count(lo, 2) if cap is None else range(lo, cap + 1, 2):
            if v > lo:
                visited += 1
                if floored[k]:
                    pruned += 1
                    floor_pruned += 1
                    break
                p, q = _lead_step(n, k + 1, v - 2, runs)
                dim, r = divmod(dim * p, q)
                if r != 0:
                    raise ArithmeticError(f"dimension ratio is not integral at n={n}, K={k + 1}, v={v}")
            if dim > max_dim:
                pruned += 1
                break
            if k > 0:
                todo.append((k - 1, (v, c + 1, rest) if v == lo else (v, 1, runs), dim))
                continue
            doubled, cell = (v,), runs  # a hit expands its run list once
            while cell:
                doubled, cell = doubled + (cell[0],) * cell[1], cell[2]
            w = _prechecked(HighestWeight, n=n, doubled=doubled)
            sign_pair = n % 2 == 0 and doubled[-1] > 0
            # its last 2 - n % 2 entries are zero; the walk keeps them >= 0 (even n >= 4, so m >= 2)
            real_form = not any(doubled[n % 2 - 2:])
            hits.append(EnumerationHit(w, dim, real_form, sign_pair))
    hits.sort(key=lambda h: (h.dimension, h.weight.doubled))
    mu1_cap = None if cap is None else Fraction(cap, 2)
    return EnumerationReport(n, max_dim, tuple(hits), mu1_cap, visited, pruned, floor_pruned)


def _floored(n: int, max_dim: int) -> list[bool]:
    """Entry k, k = 0..m-1: whether a raise of the leading K = k + 1 entries
    has its floor dim(1^K) = ``_wedge_dim(n, K)`` above max_dim.  C(n, K)
    rises in K up to m - 1, so below m one threshold decides, found by
    C(n, K+1) = C(n, K)(n - K)/(K + 1) rather than a table of every C(n, K);
    K = m, halved for even n, is tested on its own."""
    m = n // 2
    K, c = 1, n  # c = C(n, K)
    while K < m and c <= max_dim:
        c = c * (n - K) // (K + 1)
        K += 1
    return [K <= k + 1 for k in range(m - 1)] + [_wedge_dim(n, m) > max_dim]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ClassificationReport:
    """Mechanical confirmation that, below the dimension of the traceless
    symmetric matrices, only the four classical modules fit."""

    n: int
    bound: int
    hits: tuple[EnumerationHit, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def traceless_sym_dim(n: int) -> int:
    """(n-1)(n+2)/2, the dimension of the traceless symmetric matrices."""
    return _traceless_sym(_at_least(n, "n", 2))


def _traceless_sym(n: int) -> int:
    return (n - 1) * (n + 2) // 2


def _wedge_dim(n: int, q: int) -> int:
    """C(n, q), the dimension of (1^q, 0, ..., 0) for 1 <= q <= m, the q-th
    exterior power; at q = m for even n, half of it, one chiral half."""
    return comb(n, q) // (2 if 2 * q == n else 1)


def _comparison_dims(n: int) -> list[int]:
    """The dimensions of (2, 1^{q-1}, 0, ..., 0) for q = 2..m, by the closed
    form q C(n+1, q+1) - C(n, q-1), then of (1^q, 0, ..., 0) for q = 3..m,
    C(n, q); at q = m for even n, half of each, one chiral half.  The
    binomials come from one row, C(n, q+2) = C(n, q+1)(n - q - 1)/(q + 2),
    an exact division by a small integer, with C(n+1, q+1) =
    C(n, q+1) + C(n, q), rather than from 2m - 3 ``comb`` calls."""
    hooks, wedges = [], []
    below, c, above = 1, n, n * (n - 1) // 2  # C(n, q-1), C(n, q), C(n, q+1) at q = 1
    for q in range(1, n // 2 + 1):
        half = 2 if 2 * q == n else 1
        if q >= 2:
            hooks.append((q * (above + c) - below) // half)
        if q >= 3:
            wedges.append(c // half)
        below, c, above = c, above, above * (n - q - 1) // (q + 2)
    return hooks + wedges


_CLASSIFIED_FROM = 17  # the least n where the spin dimension exceeds (n-1)(n+2)/2: check 1 below


def verify_classification(n: int) -> ClassificationReport:
    """Verify, in exact arithmetic, the low-dimension module classification
    for SO(n), n >= 17:

    1. the spin dimension exceeds the bound (n-1)(n+2)/2 (this is what the
       n >= 17 hypothesis buys);
    2. exactly four dominant weights fit at or below the bound: 0,
       (1,0,...), (1,1,0,...), (2,0,...), with dimensions 1, C(n, 1) and
       C(n, 2) (``_wedge_dim``) and the bound, over every weight (the walk has no box);
    3. the comparison weights (2,1^{q-1},0,...) for q = 2..m and
       (1^q,0,...) for q = 3..m all exceed the bound ((1,1,0,...) is the
       lone exception below it), by their closed forms
       (``_comparison_dims``);
    4. the single-row closed form exceeds the bound at s = 3 and s = 4.
    """
    n = _at_least(n, "n", _CLASSIFIED_FROM, HypothesisViolated)
    m, bound = n // 2, _traceless_sym(n)
    spin, hits = _spin_dim(n), _walk(n, bound, None).hits
    found = {h.weight.doubled: h.dimension for h in hits}
    expected = {
        (0,) * m: 1,
        (2,) + (0,) * (m - 1): _wedge_dim(n, 1),
        (2, 2) + (0,) * (m - 2): _wedge_dim(n, 2),
        (4,) + (0,) * (m - 1): bound,
    }
    comparison = _comparison_dims(n)
    smallest, s3, s4 = min(comparison), _single_row(n, 3), _single_row(n, 4)
    return ClassificationReport(n, bound, hits, (
        CheckResult("spin_exceeds_bound", spin > bound, f"{spin} > {bound}"),
        CheckResult("only_four_low_weights", found == expected,
                    f"hit dims {sorted(found.values())}, expected {sorted(expected.values())}"),
        CheckResult("proof_case_weights_exceed_bound", smallest > bound,
                    f"{len(comparison)} comparison weights, smallest dimension {smallest} vs bound {bound}"),
        CheckResult("single_row_exceeds_bound", s3 > bound and s4 > bound, f"s=3: {s3}, s=4: {s4}, bound {bound}"),
    ))
