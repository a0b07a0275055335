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
product at lam = 0 (cached per n) and checked to divide exactly.  Floating
point is deliberately absent, and ``Fraction`` is used only to parse entries
and caps and for ``halves`` and ``mu1_cap``.

The classification walk never multiplies out a full product.  It visits
weights whose leading run of K equal entries rises by 2 at each step, and
that shift drops the lead's lowest coordinate l_K and adds l_1 + 2, so the
new dimension is the old one times an exact ratio of short progressions
(``_lead_step``).  Its two roots, the zero weight and (1/2, ..., 1/2), have
the closed dimensions 1 and the spin dimension.  Every Weyl factor
<lam+rho, alpha>/<rho, alpha> grows when a dominant weight is added to lam,
so a branch whose smallest weight already exceeds the cutoff holds no hit,
and along every branch the dimension grows without bound: the walk needs no
box, and the classification below the dimension of the traceless symmetric
matrices, (n-1)(n+2)/2, is proven by the walk itself.  The comparison
weights of that proof, (1^q) and (2, 1^{q-1}), have the classical closed
forms C(n, q) and q C(n+1, q+1) - C(n, q-1) (El Samra & King, J. Phys. A
12, 1979), halved for the chiral halves at q = m for even n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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
    _index,
)
from .flagcore import _prechecked


@dataclass(frozen=True, order=True)
class HighestWeight:
    """A dominant weight for SO(n), stored as doubled integers.

    ``doubled[i] = 2 * mu_{i+1}``; all entries share one parity (all even
    for integral weights, all odd for spin weights).
    """

    n: int
    doubled: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "n"))
        object.__setattr__(self, "doubled", tuple(_index(d, "doubled weight entry") for d in self.doubled))
        if self.n < 3:
            raise NotDominant(f"need n >= 3, got n={self.n}")
        m = self.n // 2
        d = self.doubled
        if len(d) != m:
            raise NotDominant(f"need {m} entries for n={self.n}, got {len(d)}")
        if len({x % 2 for x in d}) > 1:
            raise MixedParity(f"entries mix integers and half-integers: {self._pretty(d)}")
        if any(a < b for a, b in zip(d, d[1:])):
            raise NotDominant(f"entries must be nonincreasing: {self._pretty(d)}")
        if self.n % 2 == 1:
            if d[-1] < 0:
                raise NotDominant(f"last entry must be >= 0 for odd n: {self._pretty(d)}")
        else:
            if d[-2] < abs(d[-1]):  # even n >= 4, so m >= 2
                raise NotDominant(
                    f"need mu_{m - 1} >= |mu_{m}| for even n: {self._pretty(d)}"
                )

    @staticmethod
    def _pretty(doubled: Sequence[int]) -> str:
        """The entries d/2 as ``str(Fraction(d, 2))`` prints them, from the
        doubled ints: d // 2 when d is even, ``d/2`` when it is odd."""
        return ",".join(f"{d}/2" if d % 2 else str(d // 2) for d in doubled)

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def is_spin(self) -> bool:
        return self.doubled[0] % 2 == 1

    def halves(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.doubled)

    def __str__(self) -> str:
        return self._pretty(self.doubled)

    @classmethod
    def from_halves(cls, n: int, values: Sequence) -> "HighestWeight":
        return cls(n, tuple(_doubled_entry(v) for v in values))


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


def _shifted_product(n: int, doubled: Sequence[int]) -> int:
    """prod_{i<j} (l_i^2 - l_j^2), times prod_i l_i for odd n, over the
    doubled lam+rho coordinates l_i = doubled[i-1] + n - 2i.

    The Weyl factors <lam+rho, e_i -+ e_j> and <lam+rho, e_i> are
    (l_i -+ l_j)/2 and l_i/2; the halves cancel against the same product
    at lam = 0, which is ``_rho_product(n)``."""
    shifted = [d + n - 2 * i for i, d in enumerate(doubled, 1)]
    sq = [x * x for x in shifted]
    return prod([a - b for i, a in enumerate(sq) for b in sq[i + 1:]] + (shifted if n % 2 else []))


@lru_cache(maxsize=64)
def _rho_product(n: int) -> int:
    """The Weyl denominator for SO(n): ``_shifted_product`` at lam = 0."""
    return _shifted_product(n, (0,) * (n // 2))


def weyl_dim(w: HighestWeight) -> int:
    """Dimension of the irreducible SO(n, C) module with highest weight w.

    Evaluated as an exact integer, the product over the positive roots in
    the doubled lam+rho coordinates (``_shifted_product``) divided by the
    same product at lam = 0; the division is required to be exact, never
    rounded.
    """
    q, r = divmod(_shifted_product(w.n, w.doubled), _rho_product(w.n))
    if r != 0:
        raise ArithmeticError(f"dimension product is not integral for weight {w}")
    if q <= 0:
        raise ArithmeticError(f"dimension product is not positive for weight {w}")
    return q


def _lead_step(n: int, K: int, v: int, suffix: tuple[int, ...]) -> tuple[int, int]:
    """(p, q) with dim(w') q = dim(w) p, for the dominant weights
    w = (v,)*K + suffix and w' = (v+2,)*K + suffix, doubled, with
    suffix[0] <= v and every entry >= 0.

    The lead coordinates l_i = v + n - 2i, i = 1..K, step by 2, so raising
    them all by 2 drops L = l_K and adds U = l_1 + 2; every other factor of
    ``_shifted_product`` is unchanged.  Against the lead l_i = U - 2i, i < K,
    the ratio (U^2 - l_i^2)/(l_i^2 - L^2) = (U - i)/(U - K - i) after the 2s
    cancel; against a suffix coordinate l_j it is (U^2 - l_j^2)/(L^2 - l_j^2),
    and a run of equal entries makes each of U -+ l_j and L -+ l_j a
    progression in j; for odd n the short root adds U/L.  Every factor is
    positive: the result is exact and has no floating point."""
    U = v + n
    L = U - 2 * K
    p, q = prod(range(U - K + 1, U)), prod(range(L + 1, U - K))
    if n % 2:
        p, q = p * U, q * L
    i = 0
    while i < len(suffix):
        s = suffix[i]
        c = suffix.count(s)  # nonincreasing, so the copies of s are one run
        hi = s + n - 2 * (K + i + 1)  # l_j at the run's first j, then down by 2
        lo = hi - 2 * (c - 1)
        p *= prod(range(U - hi, U - lo + 1, 2)) * prod(range(U + lo, U + hi + 1, 2))
        q *= prod(range(L - hi, L - lo + 1, 2)) * prod(range(L + lo, L + hi + 1, 2))
        i += c
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
    if n % 2 == 1:
        if i <= m - 1:
            doubled = (2,) * i + (0,) * (m - i)
        else:
            doubled = (1,) * m
    else:
        if i <= m - 2:
            doubled = (2,) * i + (0,) * (m - i)
        elif i == m - 1:
            doubled = (1,) * (m - 1) + (-1,)
        else:
            doubled = (1,) * m
    return _prechecked(HighestWeight, n=n, doubled=doubled)


def spin_dimension(n: int) -> int:
    """2^m for n = 2m+1, 2^{m-1} for n = 2m: the spin module dimension,
    equal to weyl_dim at the spin fundamental weight(s)."""
    return _spin_dim(_at_least(n, "n", 3, HypothesisViolated))


def _spin_dim(n: int) -> int:
    return 2 ** (n // 2) if n % 2 == 1 else 2 ** (n // 2 - 1)


def single_row_dim(n: int, s: int) -> int:
    """Closed form for the single-row weight (s, 0, ..., 0):

        odd n:   (1 + 2s/(n-2)) * C(n-3+s, s)
        even n:  (1 + s/(m-1))  * C(n-3+s, s)

    Must agree with weyl_dim on the same weight; kept separate so the two
    routes check each other.
    """
    return _single_row(_at_least(n, "n", 5, HypothesisViolated), _at_least(s, "s", 0))


def _single_row(n: int, s: int) -> int:
    binom = comb(n - 3 + s, s)
    if n % 2 == 1:
        val, r = divmod((n - 2 + 2 * s) * binom, n - 2)
    else:
        m = n // 2
        val, r = divmod((m - 1 + s) * binom, m - 1)
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
    counts the weights whose dimension the walk evaluated and ``pruned`` the
    ones among them that exceeded ``max_dim`` and so cut their branch.  Both
    describe the walk, not its result: they are left out of ``repr`` and
    equality.
    """

    n: int
    max_dim: int
    hits: tuple[EnumerationHit, ...]
    mu1_cap: Fraction | None
    visited: int = field(repr=False, compare=False)
    pruned: int = field(repr=False, compare=False)


def _doubled_cap(mu1_cap) -> int:
    """2 mu1_cap, refused unless mu1_cap is a half-integer >= 2."""
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
    larger value is its predecessor with the leading run raised by 2, whose
    dimension ``_lead_step`` gives exactly.  That dimension grows without
    bound in the value, so the pruning ends every value loop and the cap is
    only a box a caller may ask for: without it the walk lists every hit.

    For even n the walk keeps the last entry >= 0.  A hit whose last entry
    is positive stands for itself and its mirror, the weight with that entry
    negated: ``_shifted_product`` squares l_m = d_m, so the two have the same
    dimension, and the pair is reported once with ``sign_pair`` set.
    Hits are sorted by dimension, then lexicographically.
    """
    n = _at_least(n, "n", 3, HypothesisViolated)
    cap = None if mu1_cap is None else _doubled_cap(mu1_cap)
    return _walk(n, _index(max_dim, "max_dim"), cap)


def _walk(n: int, max_dim: int, cap: int | None) -> EnumerationReport:
    """``enumerate_low_dim`` for trusted n >= 3, an int max_dim and a doubled
    cap >= 4 or None."""
    m = n // 2
    hits = []
    visited = pruned = 0
    # A node fixes entry k above the fixed entries `suffix`, starting from
    # `lo`; `dim` is the dimension of the smallest completion at `lo`, which
    # the parent evaluated.  The roots are the two smallest completions, the
    # zero weight and (1/2, ..., 1/2).  A completion is m ints of one parity,
    # nonincreasing and >= 0, so dominant: it is built without the validator,
    # and so is each hit, which is a completion.
    todo = []
    for lo, dim in ((0, 1), (1, _spin_dim(n))):
        visited += 1
        if dim > max_dim:
            pruned += 1
        else:
            todo.append((m - 1, (), lo, dim))
    while todo:
        k, suffix, lo, dim = todo.pop()
        for v in count(lo, 2) if cap is None else range(lo, cap + 1, 2):
            if v > lo:
                visited += 1
                p, q = _lead_step(n, k + 1, v - 2, suffix)
                dim, r = divmod(dim * p, q)
                if r != 0:
                    raise ArithmeticError(f"dimension ratio is not integral at n={n}, {(v,) * (k + 1) + suffix}")
                if dim > max_dim:
                    pruned += 1
                    break
            if k > 0:
                todo.append((k - 1, (v,) + suffix, v, dim))
                continue
            doubled = (v,) + suffix
            w = _prechecked(HighestWeight, n=n, doubled=doubled)
            sign_pair = n % 2 == 0 and doubled[-1] > 0
            if n % 2 == 1:
                real_form = doubled[-1] == 0
            else:
                real_form = doubled[-1] == 0 and doubled[-2] == 0  # even n >= 4, so m >= 2
            hits.append(EnumerationHit(w, dim, real_form, sign_pair))
    hits.sort(key=lambda h: (h.dimension, h.weight.doubled))
    return EnumerationReport(n, max_dim, tuple(hits), None if cap is None else Fraction(cap, 2), visited, pruned)


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


def _hook_dim(n: int, q: int) -> int:
    """q C(n+1, q+1) - C(n, q-1), the dimension of (2, 1^{q-1}, 0, ..., 0)
    for 1 <= q <= m; at q = m for even n, half of it, one chiral half."""
    return (q * comb(n + 1, q + 1) - comb(n, q - 1)) // (2 if 2 * q == n else 1)


def verify_classification(n: int, mu1_cap=None) -> ClassificationReport:
    """Verify, in exact arithmetic, the low-dimension module classification
    for SO(n), n >= 17:

    1. the spin dimension exceeds the bound (n-1)(n+2)/2 (this is what the
       n >= 17 hypothesis buys);
    2. exactly four dominant weights fit at or below the bound: 0,
       (1,0,...), (1,1,0,...), (2,0,...), with their closed-form dimensions
       1, n, n(n-1)/2, (n-1)(n+2)/2; the walk has no box unless ``mu1_cap``
       asks for one, so this covers every weight;
    3. the comparison weights (2,1^{q-1},0,...) for q = 2..m and
       (1^q,0,...) for q = 3..m all exceed the bound ((1,1,0,...) is the
       lone exception below it), by their closed forms ``_hook_dim`` and
       ``_wedge_dim``;
    4. the single-row closed form exceeds the bound at s = 3 and s = 4.
    """
    n = _index(n, "n")
    if n < 17:
        raise HypothesisViolated(f"classification requires n >= 17, got {n}")
    cap = None if mu1_cap is None else _doubled_cap(mu1_cap)
    m = n // 2
    bound = _traceless_sym(n)
    checks = []

    spin = _spin_dim(n)
    checks.append(
        CheckResult("spin_exceeds_bound", spin > bound, f"{spin} > {bound}")
    )

    report = _walk(n, bound, cap)
    expected = {
        (0,) * m: 1,
        (2,) + (0,) * (m - 1): n,
        (2, 2) + (0,) * (m - 2): n * (n - 1) // 2,
        (4,) + (0,) * (m - 1): bound,
    }
    found = {h.weight.doubled: h.dimension for h in report.hits}
    checks.append(
        CheckResult(
            "only_four_low_weights",
            found == expected,
            f"hit dims {sorted(found.values())}, expected {sorted(expected.values())}",
        )
    )

    comparison = [_hook_dim(n, q) for q in range(2, m + 1)] + [_wedge_dim(n, q) for q in range(3, m + 1)]
    worst = min(comparison)
    checks.append(
        CheckResult(
            "proof_case_weights_exceed_bound",
            worst > bound,
            f"{len(comparison)} comparison weights, smallest dimension {worst} vs bound {bound}",
        )
    )

    rows = {s: _single_row(n, s) for s in (3, 4)}
    checks.append(
        CheckResult(
            "single_row_exceeds_bound",
            all(v > bound for v in rows.values()),
            f"s=3: {rows[3]}, s=4: {rows[4]}, bound {bound}",
        )
    )

    return ClassificationReport(n, bound, report.hits, tuple(checks))
