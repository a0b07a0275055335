"""Ambient-dimension bounds for embedding a flag manifold, all in exact
integer arithmetic.

The matrix model lives in the traceless symmetric matrices, dimension
(n-1)(n+2)/2, and that value is compared here against the classical
general-purpose bounds evaluated at the flag manifold's dimension m:
Whitney's smooth bound 2m, Gunther's isometric bound, and Wang's
finite-group equivariant bound d|G|.  Every one of them, and every
comparison between them, depends only on (n, m, |G|), and a sweep
computes each once from those trusted integers: the isospectral value and
its label once per n (``_n_columns``), the rest once per (n, m) group as
one flat row of integers and booleans (``_columns``).

The Gunther comparison cannot fail: m >= n - 1 (equal for lines and
hyperplanes), Gunther's bound increases in m, and at m = n - 1 it exceeds
(n-1)(n+2)/2 by max(5, n - 1).  A sweep still counts failures and exits 1 on one.

The signatures in R^n are the chains 0 < k_1 < ... < k_p < n, and one
walk enumerates them a level at a time (``_walk_chains``): level p, the
chains of length p, is built from level p-1 by appending every k after
each shorter chain's last entry.  Taking the shorter chains in
lexicographic order gives the chains of each length in
``itertools.combinations`` order.  A chain carries its dim Flag and its
ks text along, each its prefix's value plus one term, (k - k_{p-1})(n - k)
and a separator and str(k), so a row of a sweep costs O(1) in its length.
``bounds sweep`` renders and writes each level as one chunk, so its memory
holds one level of chains and its text, never the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import _at_least, _index
from .flagcore import FlagSignature, _prechecked
from .repdim import _CLASSIFIED_FROM, _traceless_sym, traceless_sym_dim


def flag_dimension(sig: FlagSignature) -> int:
    """dim Flag(k_1, ..., k_p; R^n) = sum n_i (n - k_i) = (n^2 - sum n_i^2) / 2,
    with block sizes n_i = k_i - k_{i-1} and k_0 = 0: each block pairs once
    with the n - k_i dimensions after it."""
    return sum((k - prev) * (sig.n - k) for prev, k in zip((0,) + sig.ks, sig.ks))


def gunther_bound(m: int) -> int:
    """max{m(m+3)/2 + 5, m(m+5)/2}: ambient dimension sufficient for an
    isometric embedding of any Riemannian manifold of dimension m."""
    return _gunther(_at_least(m, "m", 1))


def _gunther(m: int) -> int:
    return max(m * (m + 3) // 2 + 5, m * (m + 5) // 2)


def isospectral_bound(n: int) -> int:
    """(n-1)(n+2)/2: the ambient dimension achieved by the matrix model of
    any flag manifold in R^n (traceless symmetric matrices)."""
    return traceless_sym_dim(n)


def whitney_bound(m: int) -> int:
    """2m: ambient dimension sufficient for a smooth embedding."""
    return 2 * _at_least(m, "m", 1)


def wang_bound(d: int, group_order: int) -> int:
    """d |G|: ambient dimension of the equivariant embedding a finite group
    of order |G| induces from any embedding into R^d."""
    return _at_least(d, "d", 1) * _at_least(group_order, "group_order", 1)


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one signature, as exact integers, plus the named
    comparisons between them.

    ``isospectral_label`` distinguishes the range where the model's value
    is the proven equivariant minimum (n >= 17) from the range where it is
    only an achieved upper bound."""

    signature: FlagSignature
    flag_dim: int
    isospectral: int
    gunther: int
    whitney: int
    wang: int | None
    comparisons: dict[str, bool]
    isospectral_label: str


def bound_table(sig: FlagSignature, group_order: int | None = None) -> BoundReport:
    """Evaluate every bound for one signature.

    Each column depends only on (n, m, |G|) with m = flag_dimension(sig).
    With a group order given, the Wang column holds the Whitney-composed
    value 2m|G| and the comparisons record whether it exceeds the matrix
    model's dimension (equivalently |G| > (n-1)(n+2)/4m)."""
    m = flag_dimension(sig)  # a FlagSignature is valid, so only |G| is checked here
    group_order = None if group_order is None else _at_least(group_order, "group_order", 1)
    iso, label = _n_columns(sig.n)
    gunther, whitney, wang, lt_gunther, whitney_condition, wang_gt = _columns(iso, m, group_order)
    comparisons = {"isospectral_lt_gunther": lt_gunther, "whitney_condition": whitney_condition}
    if wang is not None:
        comparisons["wang_composed_gt_isospectral"] = wang_gt
    return BoundReport(sig, m, iso, gunther, whitney, wang, comparisons, label)


def _n_columns(n: int) -> tuple[int, str]:
    """The columns that depend on the trusted n >= 2 alone: isospectral and
    its label."""
    return _traceless_sym(n), "exact equivariant minimum" if n >= _CLASSIFIED_FROM else "achieved upper bound"


def _columns(iso: int, m: int, group_order: int | None) -> tuple:
    """One (n, m) group's row from trusted integers iso = (n-1)(n+2)/2,
    m >= n - 1 and group_order >= 1 or None: gunther, whitney, wang and the
    comparisons isospectral_lt_gunther, whitney_condition and
    wang_composed_gt_isospectral, flat; wang and its comparison are None
    without a group order."""
    gunther, whitney = _gunther(m), 2 * m
    if group_order is None:
        return gunther, whitney, None, iso < gunther, iso <= whitney, None
    wang = whitney * group_order
    return gunther, whitney, wang, iso < gunther, iso <= whitney, wang > iso


def _walk_chains(n: int, sep: str, head: str) -> Iterator[list[tuple[int, int, str]]]:
    """The chains 0 < k_1 < ... < k_p < n a level at a time: for p = 1, 2, ...,
    the list of (k_p, flag dimension, head + sep.join(map(str, ks))) for
    every chain ks of length p, in ``combinations`` order.

    Each chain extends its prefix, whose dimension gains (k - last)(n - k)
    and whose text gains sep + str(k); the one-entry chains extend the
    empty chain, with dimension 0 and last entry 0.  Those three terms
    depend only on (last, k), so they are tabulated once per walk."""
    tails = [sep + str(k) for k in range(n)]
    extend = [[(k, (k - last) * (n - k), tails[k]) for k in range(last + 1, n)]
              for last in range(n)]
    level = [(k, k * (n - k), head + str(k)) for k in range(1, n)]
    while level:
        yield level
        level = [(k, m + dm, text + tail)
                 for last, m, text in level for k, dm, tail in extend[last]]


def all_signatures(n: int) -> Iterator[FlagSignature]:
    """Every flag signature in R^n: the 2^{n-1} - 1 nonempty subsets of
    {1, ..., n-1} as chains k_1 < ... < k_p, by p and then in
    ``itertools.combinations`` order.

    Each chain is a strictly increasing tuple of ints inside (0, n), which
    is what ``FlagSignature``'s validator checks, so the signatures are
    built without it."""
    n = _index(n, "n")
    for p in range(1, n):
        for ks in combinations(range(1, n), p):
            yield _prechecked(FlagSignature, n=n, ks=ks)
