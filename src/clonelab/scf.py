"""Single-winner voting rules (social choice functions).

Every rule maps a profile to the non-empty frozenset of tied winners.  Rules
that hinge on sequential tie-breaking come in three flavours here:

* voter-indexed (``rp_i``, ``stv_i``): voter i's ranking settles every tie,
  so the outcome is a single winner;
* parallel-universe (``stv``, ``rp_put``, ``alt_smith``): every way of
  breaking every tie is explored and the winners are unioned;
* union-over-voters (``rp_n``): the union of ``rp_i`` over all voters.

Pairwise rules (``beatpath``, ``split_cycle``, ``smith``, ``schwartz``, the
uncovered sets) and ranked pairs only consult the majority margins, and all
of them read the one set of margin rows a profile computes (indexed like
``profile.candidates``; see :mod:`clonelab.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .profiles import Profile

WinnerSet = frozenset[str]

__all__ = [
    "WinnerSet",
    "pv",
    "stv",
    "stv_i",
    "stv_i_ranking",
    "sigma_i",
    "priority_order",
    "rp_i",
    "rp_i_ranking",
    "rp_put",
    "rp_put_rankings",
    "rp_n",
    "StrengthMatrix",
    "strength_matrix",
    "beatpath",
    "split_cycle",
    "smith",
    "schwartz",
    "alt_smith",
    "uc_gillies",
    "uc_fishburn",
    "condorcet_winner",
    "first_place_counts",
]


def first_place_counts(profile: Profile, among=None) -> dict[str, int]:
    """Plurality tally, optionally restricted to the ``among`` candidates."""
    pool = set(profile.candidates if among is None else among)
    counts = {c: 0 for c in pool}
    for ranking, mult in profile.groups:
        top = next(c for c in ranking if c in pool)
        counts[top] += mult
    return counts


def pv(profile: Profile) -> WinnerSet:
    """Plurality: most first-place votes."""
    counts = first_place_counts(profile)
    best = max(counts.values())
    return frozenset(c for c, v in counts.items() if v == best)


# ---------------------------------------------------------------------------
# sequential elimination


def stv(profile: Profile) -> WinnerSet:
    """Single transferable vote, parallel-universe tie-breaking.

    Each round eliminates a candidate with the fewest first-place votes; on a
    tie, every choice of eliminee is followed and the survivors are unioned.
    """
    memo: dict[frozenset[str], WinnerSet] = {}

    def survivors(remaining: frozenset[str]) -> WinnerSet:
        if len(remaining) == 1:
            return remaining
        if remaining in memo:
            return memo[remaining]
        counts = first_place_counts(profile, remaining)
        fewest = min(counts.values())
        result: set[str] = set()
        for loser in sorted(c for c, v in counts.items() if v == fewest):
            result |= survivors(remaining - {loser})
        memo[remaining] = frozenset(result)
        return memo[remaining]

    return survivors(frozenset(profile.candidates))


def _stv_i_eliminations(profile: Profile, i: int) -> list[str]:
    """Elimination order when voter i settles plurality ties.

    Among the candidates tied for fewest first-place votes, the one voter i
    ranks lowest goes out.
    """
    pos = {c: k for k, c in enumerate(profile.voter_ranking(i))}
    remaining = set(profile.candidates)
    order: list[str] = []
    while len(remaining) > 1:
        counts = first_place_counts(profile, remaining)
        fewest = min(counts.values())
        tied = [c for c, v in counts.items() if v == fewest]
        loser = max(tied, key=lambda c: pos[c])
        order.append(loser)
        remaining.remove(loser)
    return order


def stv_i(profile: Profile, i: int) -> WinnerSet:
    """STV with voter i breaking every elimination tie; always decisive."""
    gone = _stv_i_eliminations(profile, i)
    (winner,) = set(profile.candidates) - set(gone)
    return frozenset({winner})


def stv_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Reverse elimination order of :func:`stv_i` (winner first)."""
    gone = _stv_i_eliminations(profile, i)
    (winner,) = set(profile.candidates) - set(gone)
    return (winner, *reversed(gone))


# ---------------------------------------------------------------------------
# ranked pairs, voter-indexed and parallel-universe


def sigma_i(profile: Profile, i: int) -> tuple[frozenset[str], ...]:
    """Voter i's ranking of unordered candidate pairs.

    {a,b} precedes {c,d} when i's favourite of {a,b} beats i's favourite of
    {c,d} on i's ballot, with the lesser members comparing next on a tie.
    """
    ranking = profile.voter_ranking(i)
    pos = {c: k for k, c in enumerate(ranking)}
    pairs = [frozenset(p) for p in combinations(ranking, 2)]
    pairs.sort(key=lambda p: tuple(sorted(pos[c] for c in p)))
    return tuple(pairs)


def _priority_pairs(profile: Profile, i: int) -> list[tuple[int, int]]:
    """:func:`priority_order` as pairs of candidate codes."""
    core = profile._core
    rows = core.rows
    pos = [0] * len(rows)  # code -> place on voter i's ballot
    for k, c in enumerate(profile.voter_ranking(i)):
        pos[core.index[c]] = k

    def key(ab: tuple[int, int]) -> tuple[int, int, int, int]:
        a, b = ab
        pa, pb = pos[a], pos[b]
        # voter i's rank of the pair {a, b} is the order of (upper, lower) place
        return (-rows[a][b], *((pa, pb) if pa < pb else (pb, pa)), pa)

    return sorted(((a, b) for a in range(len(rows)) for b in range(len(rows)) if a != b), key=key)


def priority_order(profile: Profile, i: int) -> tuple[tuple[str, str], ...]:
    """Strict processing order over ordered pairs for ranked pairs.

    Larger margins first; equal margins settled by voter i's pair ranking;
    the two orientations of a majority-tied pair settled by i's ballot.
    """
    cands = profile.candidates
    return tuple((cands[a], cands[b]) for a, b in _priority_pairs(profile, i))


def _reaches(locked: set[tuple[str, str]], start: str, goal: str) -> bool:
    """Is there a directed path start → goal through the locked edges?"""
    if start == goal:
        return True
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        for a, b in locked:
            if a == node and b not in seen:
                if b == goal:
                    return True
                seen.add(b)
                stack.append(b)
    return False


def _sources(locked, candidates) -> list[str]:
    targets = {b for _, b in locked}
    return [c for c in candidates if c not in targets]


def _ranking_from_locked(locked, candidates) -> tuple[str, ...]:
    """Peel unique sources off a locked graph whose closure is a total order."""
    remaining = list(candidates)
    out: list[str] = []
    edges = set(locked)
    while remaining:
        sources = _sources(edges, remaining)
        if len(sources) != 1:
            raise AssertionError(f"locked graph is not a total order: sources {sources}")
        (src,) = sources
        out.append(src)
        remaining.remove(src)
        edges = {(a, b) for a, b in edges if a != src}
    return tuple(out)


def rp_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Full ranked-pairs order with voter i's priority order.

    Pairs of non-negative margin are locked in priority order unless the
    locked graph already leads back; ``reach[a]`` holds, as a bitmask, every
    candidate a leads to, so each test is one bit and each lock one pass.
    The result is a total order, read off by how many each candidate leads to.
    """
    rows = profile._core.rows
    reach = [0] * len(rows)
    for a, b in _priority_pairs(profile, i):
        if rows[a][b] < 0:
            break  # every later pair has a negative margin too
        if reach[b] >> a & 1:
            continue  # b already leads to a: locking a->b would close a cycle
        gained = reach[b] | 1 << b
        for x, rx in enumerate(reach):
            if x == a or rx >> a & 1:
                reach[x] = rx | gained
    order = sorted(range(len(rows)), key=lambda c: -reach[c].bit_count())
    return tuple(profile.candidates[c] for c in order)


def rp_i(profile: Profile, i: int) -> WinnerSet:
    """Ranked pairs with voter i settling all ties; always decisive."""
    return frozenset({rp_i_ranking(profile, i)[0]})


def _maximal_acyclic_extensions(locked: frozenset, group: list) -> set[frozenset]:
    """All maximal ways of locking edges from ``group`` on top of ``locked``.

    Equivalent to processing the group's edges in every order: an edge left
    out by some order closes a cycle with what that order locked, so the
    locked sets reachable are exactly the maximal acyclic extensions.
    """
    results: set[frozenset] = set()
    seen: set[frozenset] = set()

    def grow(current: frozenset) -> None:
        if current in seen:
            return
        seen.add(current)
        addable = [e for e in group if e not in current and not _reaches(current, e[1], e[0])]
        if not addable:
            results.add(current)
            return
        for e in addable:
            grow(current | {e})

    grow(locked)
    return results


def _rp_final_lockings(profile: Profile) -> set[frozenset]:
    cands = profile.candidates
    by_margin: dict[int, list] = {}
    for a, row in enumerate(profile._core.rows):
        for b, w in enumerate(row):
            if a != b and w >= 0:
                by_margin.setdefault(w, []).append((cands[a], cands[b]))
    states: set[frozenset] = {frozenset()}
    for margin in sorted(by_margin, reverse=True):
        group = by_margin[margin]
        states = {ext for st in states for ext in _maximal_acyclic_extensions(st, group)}
    return states


def rp_put_rankings(profile: Profile) -> frozenset[tuple[str, ...]]:
    """Every ranked-pairs order reachable by some tie-breaking order."""
    return frozenset(
        _ranking_from_locked(locked, profile.candidates)
        for locked in _rp_final_lockings(profile)
    )


def rp_put(profile: Profile) -> WinnerSet:
    """Ranked pairs, parallel-universe over all pair-processing orders."""
    return frozenset(r[0] for r in rp_put_rankings(profile))


def rp_n(profile: Profile) -> WinnerSet:
    """Union of ``rp_i`` over every voter of the profile."""
    winners: set[str] = set()
    seen_rankings: set = set()
    i = 0
    for ranking, mult in profile.groups:
        i += mult
        if ranking in seen_rankings:
            continue
        seen_rankings.add(ranking)
        winners |= rp_i(profile, i)  # any voter of the group; same ballot
    return frozenset(winners)


# ---------------------------------------------------------------------------
# pairwise-margin rules


@dataclass(frozen=True)
class StrengthMatrix:
    """Widest-path strengths over the positive-margin digraph."""

    candidates: tuple[str, ...]
    _strengths: dict[tuple[str, str], int]

    def strength(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return self._strengths[(a, b)]

    def as_dict(self) -> dict[tuple[str, str], int]:
        return dict(self._strengths)


def _widest_paths(margins: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Max over paths a→b of the path's smallest positive margin; 0 with no path.

    Floyd–Warshall, skipping each ``k`` that ``a`` cannot reach (it widens nothing).
    """
    s = [[w if w > 0 else 0 for w in row] for row in margins]
    for k, sk in enumerate(s):
        for a, sa in enumerate(s):
            sak = sa[k]
            if sak == 0:
                continue
            for b, skb in enumerate(sk):
                through = sak if sak < skb else skb
                if through > sa[b] and b != a:
                    sa[b] = through
    return s


def strength_matrix(profile: Profile) -> StrengthMatrix:
    """Max over paths a→b of the path's smallest margin; 0 with no path."""
    cands = profile.candidates
    s = _widest_paths(profile._core.rows)
    pairs = {(a, b): s[i][j] for i, a in enumerate(cands) for j, b in enumerate(cands) if i != j}
    return StrengthMatrix(candidates=cands, _strengths=pairs)


def beatpath(profile: Profile) -> WinnerSet:
    """Beats-or-ties everyone in widest-path strength."""
    s = strength_matrix(profile)
    return frozenset(
        a
        for a in profile.candidates
        if all(s.strength(a, b) >= s.strength(b, a) for b in profile.candidates if b != a)
    )


def split_cycle(profile: Profile) -> WinnerSet:
    """Discard each cycle's weakest defeats simultaneously; undefeated win.

    A defeat a→b is the weakest link of some cycle exactly when a path from b
    back to a is at least as wide as margin(a, b), so it survives when its
    margin exceeds the widest-path strength from b to a (Holliday & Pacuit,
    *Split Cycle*, Public Choice 2023).
    """
    margins = profile._core.rows
    s = _widest_paths(margins)
    return frozenset(
        c
        for b, c in enumerate(profile.candidates)
        if all(row[b] <= s[b][a] for a, row in enumerate(margins))
    )


def _source_components(names, margins, minimum: int) -> WinnerSet:
    """Union of the source components of the ``margin >= minimum`` digraph on
    ``names`` (rows of ``margins`` indexed alike): the candidates that reach
    back everyone who reaches them."""
    reach = [  # bit b of reach[a] is set when a reaches b
        sum(1 << b for b, w in enumerate(row) if w >= minimum and b != a)
        for a, row in enumerate(margins)
    ]
    for k, rk in enumerate(reach):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | rk
    return frozenset(
        c
        for a, c in enumerate(names)
        if all(reach[a] >> b & 1 for b, rb in enumerate(reach) if rb >> a & 1 and b != a)
    )


def smith(profile: Profile) -> WinnerSet:
    """Smallest set whose members beat every outsider head-to-head.

    Beats-or-ties is complete, so its digraph has exactly one source component.
    """
    return _source_components(profile.candidates, profile._core.rows, 0)


def schwartz(profile: Profile) -> WinnerSet:
    """Union of the undominated components of the strict-defeat digraph."""
    return _source_components(profile.candidates, profile._core.rows, 1)


def alt_smith(profile: Profile) -> WinnerSet:
    """Alternate Smith-set restriction with plurality-loser elimination.

    Repeat: cut the field to its Smith set; if several candidates remain,
    eliminate one with the fewest first-place votes (every tied choice is
    followed and the outcomes unioned).  A restriction's margins are the
    profile's own, so each Smith set is read off the profile's rows.
    """
    core = profile._core
    memo: dict[frozenset[str], WinnerSet] = {}

    def run(remaining: frozenset[str]) -> WinnerSet:
        if len(remaining) == 1:
            return remaining
        if remaining in memo:
            return memo[remaining]
        names = [c for c in profile.candidates if c in remaining]
        codes = [core.index[c] for c in names]
        inner = _source_components(names, [[core.rows[a][b] for b in codes] for a in codes], 0)
        if inner != remaining:
            result = run(inner)
        else:
            counts = first_place_counts(profile, remaining)
            fewest = min(counts.values())
            collected: set[str] = set()
            for loser in sorted(c for c, v in counts.items() if v == fewest):
                collected |= run(remaining - {loser})
            result = frozenset(collected)
        memo[remaining] = result
        return result

    return run(frozenset(profile.candidates))


# ---------------------------------------------------------------------------
# uncovered sets


def _beaten_by(profile: Profile) -> list[int]:
    """Bit c of ``beaten_by[a]`` is set when candidate c strictly beats a
    (codes as in ``profile.candidates``); b left-covers a when every
    candidate beating b beats a, i.e. ``beaten_by[b]`` lies within
    ``beaten_by[a]``."""
    rows = profile._core.rows
    return [sum(1 << c for c, row in enumerate(rows) if row[a] > 0) for a in range(len(rows))]


def uc_gillies(profile: Profile) -> WinnerSet:
    """Nobody both left-covers and pairwise defeats a winner."""
    rows = profile._core.rows
    beaten = _beaten_by(profile)
    return frozenset(
        name
        for a, name in enumerate(profile.candidates)
        if not any(
            rows[b][a] > 0 and not beaten[b] & ~beaten[a] for b in range(len(rows)) if b != a
        )
    )


def uc_fishburn(profile: Profile) -> WinnerSet:
    """Nobody left-covers a winner without being left-covered back."""
    beaten = _beaten_by(profile)
    return frozenset(
        name
        for a, name in enumerate(profile.candidates)
        if not any(
            not beaten[b] & ~beaten[a] and beaten[a] & ~beaten[b]
            for b in range(len(beaten))
            if b != a
        )
    )


def condorcet_winner(profile: Profile) -> str | None:
    """The candidate beating all others head-to-head, if one exists."""
    for a, row in enumerate(profile._core.rows):
        if all(w > 0 for b, w in enumerate(row) if b != a):
            return profile.candidates[a]
    return None
