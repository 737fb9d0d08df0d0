"""Clone sets, clone structures, decompositions, and the clone distance.

A set of candidates is a *clone set* when every ballot ranks its members
consecutively (no outsider wedged between two members).  Singletons and the
full candidate set always qualify.  Each clone set is an interval of voter
1's ranking, so one table of those intervals holds the whole structure.  It
checks an interval on all k distinct ballots at once, with one integer per
candidate holding a one-bit field per ballot at its place there: the OR of
the members' integers is one run of ones in every field.  Screening every
interval on the 16 ballots after voter 1's and confirming the survivors on
all k takes O(m²) operations on integers, whatever k is.  Partitions into
clone sets are the tilings of voter 1's ranking by those intervals, listed as
intervals by :func:`_tilings` and named by :func:`enumerate_decompositions`.

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

from functools import lru_cache, reduce
from itertools import chain, compress

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
_SAMPLE = 16  # distinct ballots every interval is screened on before the rest confirm it
# _PLACE_BITS[b] maps a place p to byte b of a field holding bit p alone
_PLACE_BITS = [bytes(8 * b) + bytes(1 << e for e in range(8)) + bytes(248 - 8 * b) for b in range(32)]


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

    An interval is a clone set when the OR ``s`` of its :func:`_columns` on n
    ballots has 2n bits set in ``s ^ s << 1`` (one run per field): screened on
    the ``_SAMPLE`` ballots after voter 1's, then the nontrivial survivors on all.

    The key holds places only, no names or codes, so profiles that differ
    by renaming, by the order their candidates are listed or by the voter
    counts share one entry, and no entry keeps a profile alive."""
    others = flat[m:]  # voter 1's own ballot splits no interval
    k, w = len(others) // m, (m + 8) // 8  # a field keeps a clear guard bit above place m - 1
    wide = (2,) if w > 8 else ()  # past 63 candidates, screening on two ballots first pays
    first, *more = sorted({min(k, n) for n in (*wide, _SAMPLE, k)})
    cols, table = _columns(m, others[: first * m], w), []
    for i in range(m):
        s, row = 0, [False] * (i + 1)
        for c in cols[i:]:
            s |= c
            row.append((s ^ s << 1).bit_count() == 2 * first)
        table.append(row)
    for n in more:
        cols = None  # built once some interval is left to confirm
        for i, row in enumerate(table):
            s, at = 0, i
            for j in compress(range(i + 2, m + (i > 0)), row[i + 2 :]):
                cols = cols or _columns(m, others[: n * m], w)
                s, at = reduce(int.__or__, cols[at:j], s), j
                row[j] = (s ^ s << 1).bit_count() == 2 * n
    return tuple(map(tuple, table))


def _columns(m: int, flat, w: int) -> list[int]:
    """For each of voter 1's places x, one integer with a ``w``-byte field per
    ballot of ``flat``, the first lowest, holding one bit at the place it gives x."""
    n, out = len(flat) // m * w, bytearray(len(flat) * w)  # m columns of n bytes each
    if isinstance(flat, bytes):  # no loop over ballots: one translation per byte of field
        by_place = b"".join(flat[x::m] for x in range(m))
        for b in range((m + 7) // 8):
            out[b::w] = by_place.translate(_PLACE_BITS[b])
    else:
        for f, p in enumerate(chain.from_iterable(flat[x::m] for x in range(m))):
            out[f * w + (p >> 3)] = 1 << (p & 7)
    return [int.from_bytes(out[x * n : x * n + n], "little") for x in range(m)]


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
