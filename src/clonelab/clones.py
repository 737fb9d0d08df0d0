"""Clone sets, clone structures, decompositions, and the clone distance.

A set of candidates is a *clone set* when every ballot ranks its members
consecutively (no outsider wedged between two members).  Singletons and the
full candidate set always qualify.  Each clone set is an interval of voter
1's ranking, so one table of those intervals holds the whole structure: each
interval grows from its start one candidate at a time while every distinct
ballot tracks its members' lowest and highest position (O(k·m²) for k
ballots at most; the scan from a start stops once every interval from it has
an outsider inside on some ballot, which on unstructured profiles is after a
few ballots).  Partitions into clone sets are the tilings of voter 1's ranking
by those intervals, listed as intervals by :func:`_tilings` and named by
:func:`enumerate_decompositions`.

The table is kept, for the 256 most recent profiles, keyed by ``m`` and the
places each distinct ballot gives voter 1's candidates, run together into
one flat sequence (one ``bytes`` up to 256 candidates): equal profiles built
apart, as the axiom sweeps build them, share one entry, and the entry holds
no profile; a field's is read off them cut to it.  The clone structure, the
decompositions, the clone distance, the PQ-tree (:mod:`clonelab.pqtree`)
and the walks of the transform (:mod:`clonelab.transform`) and of the
staged game (:mod:`clonelab.games`) all read it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .profiles import Profile, _name_collection

CloneSet = frozenset[str]
CloneStructure = frozenset[CloneSet]
CloneDecomposition = tuple[CloneSet, ...]

__all__ = [
    "CloneSet",
    "CloneStructure",
    "CloneDecomposition",
    "EnumerationCapExceeded",
    "is_clone_set",
    "clone_structure",
    "enumerate_decompositions",
    "clone_metric",
    "canonical_decomposition",
]


_CACHE_SIZE = 256  # profiles per cache; hits in long sweeps are to recent ones


class EnumerationCapExceeded(RuntimeError):
    """An enumeration grew past its configured cap; results were discarded."""


def is_clone_set(profile: Profile, members: frozenset[str] | set[str]) -> bool:
    """True when ``members`` is non-empty and consecutive on every ballot."""
    members = set(_name_collection(members, "members"))  # a repeated name counts once
    unknown = members - set(profile.candidates)
    if unknown:
        raise ValueError(f"unknown candidate(s) {sorted(unknown)}")
    if not members:
        return False
    first, k = profile.groups[0][0], len(members)
    i = min(map(first.index, members))
    return set(first[i : i + k]) == members and _clone_intervals(profile)[1][i][i + k]


@lru_cache(maxsize=_CACHE_SIZE)
def _interval_table(m: int, flat) -> tuple[tuple[bool, ...], ...]:
    """The table ``t`` with ``t[i][j]`` True exactly when the candidates
    voter 1 ranks at places ``i`` to ``j - 1`` (0 <= i < j <= m) form a clone
    set, read from a core's ``positions()`` run together, ``m`` to a ballot, as ``flat``.

    The key holds places only, no names or codes, so profiles that differ
    by renaming, by the order their candidates are listed or by the voter
    counts share one entry, and no entry keeps a profile alive."""
    others = [flat[k : k + m] for k in range(m, len(flat), m)]  # voter 1's own splits none
    table = []
    for i in range(m):
        spread = [j - 1 - i for j in range(m + 1)]  # widest span of places i..j-1 so far
        top = m if i else m - 1  # last end of a nontrivial interval still unsplit
        for pos in others:
            if top < i + 2:
                break
            lo = hi = pos[i]
            for j in range(i + 2, top + 1):
                x = pos[j - 1]
                if x < lo:
                    lo = x
                elif x > hi:
                    hi = x
                if hi - lo > spread[j]:
                    spread[j] = hi - lo
            while top > i + 1 and spread[top] != top - 1 - i:
                top -= 1  # spans only widen: an interval once split stays split
        table.append(tuple(j > i and spread[j] == j - 1 - i for j in range(m + 1)))
    return tuple(table)


def _clone_intervals(profile: Profile, mask: int | None = None) -> tuple:
    """Voter 1's ranking ``first`` of the field ``mask`` (all by default) in
    codes, its interval table (``first[i:j]`` is a clone set exactly when
    ``t[i][j]``) and the core's ``positions()`` cut to it, read for the table."""
    first, keep = profile._core.ballots[0], None
    if mask is not None and mask != (1 << len(first)) - 1:
        first = keep = [c for c in first if mask >> c & 1]
    positions = profile._core.positions(keep)
    m = len(positions[0])
    flat = b"".join(positions) if m <= 256 else tuple(chain.from_iterable(positions))
    return first, _interval_table(m, flat), positions


@lru_cache(maxsize=_CACHE_SIZE)
def clone_structure(profile: Profile) -> CloneStructure:
    """All clone sets of the profile."""
    first, table = profile.groups[0][0], _clone_intervals(profile)[1]
    return frozenset(
        frozenset(first[i:j]) for i, row in enumerate(table) for j, ok in enumerate(row) if ok
    )


def canonical_decomposition(blocks) -> CloneDecomposition:
    """Blocks as a tuple sorted by their sorted member names."""
    return tuple(sorted((frozenset(b) for b in blocks), key=lambda b: tuple(sorted(b))))


def enumerate_decompositions(profile: Profile, cap: int = 10**6) -> list[CloneDecomposition]:
    """Every partition of the candidates into clone sets, canonically ordered.

    The list always contains the all-singletons partition and the one-block
    partition.  Partitions are returned with blocks sorted by least member
    and the list sorted lexicographically by that block signature.

    Raises:
        EnumerationCapExceeded: if more than ``cap`` partitions exist.
    """
    first = profile.groups[0][0]
    return [tuple(frozenset(first[a:b]) for a, b in tiling) for tiling in _tilings(profile, cap)]


def _tilings(profile: Profile, cap: int) -> list[tuple[tuple[int, int], ...]]:
    """The partitions of :func:`enumerate_decompositions`, in its order and
    with its cap, each as its blocks' intervals ``(a, b)`` of voter 1's
    ranking: the tilings by clone intervals.  Each interval is ranked once
    by its sorted names, and a tiling sorts as the sorted tuple of its ranks."""
    first, table = profile.groups[0][0], _clone_intervals(profile)[1]
    m = len(first)
    spans = [(i, j) for i, row in enumerate(table) for j, ok in enumerate(row) if ok]
    spans.sort(key=lambda ij: sorted(first[ij[0] : ij[1]]))
    count = [0] * m + [1]  # count[a]: the tilings of places a.. m - 1
    for a in reversed(range(m)):
        count[a] = sum(count[b] for b in range(a + 1, m + 1) if table[a][b])
    if count[0] > cap:
        raise EnumerationCapExceeded(f"more than {cap} decompositions; raise the cap to enumerate")
    tails: list[list[tuple[int, ...]]] = [[] for _ in range(m)] + [[()]]  # as ranks, by start
    for a in reversed(range(m)):
        tails[a] = [(r, *tail) for r, (i, b) in enumerate(spans) if i == a for tail in tails[b]]
    return [tuple(map(spans.__getitem__, t)) for t in sorted(tuple(sorted(t)) for t in tails[0])]


def _clone_distance(table, p: int, q: int) -> int:
    """The clone distance between the candidates voter 1 ranks at places
    ``p <= q``, read from the interval ``table`` of :func:`_interval_table`:
    the length of the shortest clone interval ``[i, j)`` with
    ``i <= p <= q < j``, minus one."""
    ends = range(q + 1, len(table) + 1)
    return min(j - i for i in range(p + 1) for j in ends if table[i][j]) - 1


def clone_metric(profile: Profile, a: str, b: str) -> int:
    """Clone distance: size of the smallest clone set containing both, minus one.

    Zero exactly when ``a == b``; one when {a, b} itself is a clone set; at
    most m − 1 since the full candidate set always qualifies.
    """
    for c in (a, b):
        if c not in profile.candidates:
            raise ValueError(f"unknown candidate {c!r}")
    first, table = profile.groups[0][0], _clone_intervals(profile)[1]
    return _clone_distance(table, *sorted((first.index(a), first.index(b))))
