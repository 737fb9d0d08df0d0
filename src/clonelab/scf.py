"""Single-winner voting rules (social choice functions).

Every rule maps a profile to the non-empty frozenset of tied winners.  Rules
that hinge on sequential tie-breaking come in three flavours here:

* voter-indexed (``rp_i``, ``stv_i``): voter i's ranking settles every tie,
  so the outcome is a single winner;
* parallel-universe (``stv``, ``rp_put``, ``alt_smith``): every way of
  breaking every tie is explored and the winners are unioned;
* union-over-voters (``rp_n``): the union of ``rp_i`` over all voters.

Pairwise rules (``beatpath``, ``split_cycle``, ``smith``, ``schwartz``, the
uncovered sets) only consult the majority-margin matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .profiles import Profile, majority_matrix, restrict

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


def priority_order(profile: Profile, i: int) -> tuple[tuple[str, str], ...]:
    """Strict processing order over ordered pairs for ranked pairs.

    Larger margins first; equal margins settled by voter i's pair ranking;
    the two orientations of a majority-tied pair settled by i's ballot.
    """
    m = majority_matrix(profile)
    pos = {c: k for k, c in enumerate(profile.voter_ranking(i))}
    pair_rank = {p: k for k, p in enumerate(sigma_i(profile, i))}
    ordered = [
        (a, b) for a in profile.candidates for b in profile.candidates if a != b
    ]
    ordered.sort(key=lambda ab: (-m.margin(*ab), pair_rank[frozenset(ab)], pos[ab[0]]))
    return tuple(ordered)


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


def _lock_edges(order) -> set[tuple[str, str]]:
    locked: set[tuple[str, str]] = set()
    for a, b in order:
        if not _reaches(locked, b, a):  # skip exactly the cycle-closing pairs
            locked.add((a, b))
    return locked


def rp_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Full ranked-pairs order with voter i's priority order."""
    m = majority_matrix(profile)
    order = [e for e in priority_order(profile, i) if m.margin(*e) >= 0]
    return _ranking_from_locked(_lock_edges(order), profile.candidates)


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
    m = majority_matrix(profile)
    edges = [
        (a, b)
        for a in profile.candidates
        for b in profile.candidates
        if a != b and m.margin(a, b) >= 0
    ]
    by_margin: dict[int, list] = {}
    for e in edges:
        by_margin.setdefault(m.margin(*e), []).append(e)
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


def _margin_rows(profile: Profile) -> list[list[int]]:
    """Majority margins as rows indexed like ``profile.candidates``."""
    m = majority_matrix(profile)
    cands = profile.candidates
    return [[m.margin(a, b) for b in cands] for a in cands]


def _widest_paths(margins: list[list[int]]) -> list[list[int]]:
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
    s = _widest_paths(_margin_rows(profile))
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
    margins = _margin_rows(profile)
    s = _widest_paths(margins)
    return frozenset(
        c
        for b, c in enumerate(profile.candidates)
        if all(row[b] <= s[b][a] for a, row in enumerate(margins))
    )


def _source_components(profile: Profile, minimum: int) -> WinnerSet:
    """Union of the source components of the ``margin >= minimum`` digraph:
    the candidates that reach back everyone who reaches them."""
    reach = [  # bit b of reach[a] is set when a reaches b
        sum(1 << b for b, w in enumerate(row) if w >= minimum and b != a)
        for a, row in enumerate(_margin_rows(profile))
    ]
    for k, rk in enumerate(reach):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | rk
    return frozenset(
        c
        for a, c in enumerate(profile.candidates)
        if all(reach[a] >> b & 1 for b, rb in enumerate(reach) if rb >> a & 1 and b != a)
    )


def smith(profile: Profile) -> WinnerSet:
    """Smallest set whose members beat every outsider head-to-head.

    Beats-or-ties is complete, so its digraph has exactly one source component.
    """
    return _source_components(profile, 0)


def schwartz(profile: Profile) -> WinnerSet:
    """Union of the undominated components of the strict-defeat digraph."""
    return _source_components(profile, 1)


def alt_smith(profile: Profile) -> WinnerSet:
    """Alternate Smith-set restriction with plurality-loser elimination.

    Repeat: cut the field to its Smith set; if several candidates remain,
    eliminate one with the fewest first-place votes (every tied choice is
    followed and the outcomes unioned).
    """
    memo: dict[frozenset[str], WinnerSet] = {}

    def run(remaining: frozenset[str]) -> WinnerSet:
        if len(remaining) == 1:
            return remaining
        if remaining in memo:
            return memo[remaining]
        inner = smith(restrict(profile, remaining))
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


def _left_covers(m, candidates, b: str, a: str) -> bool:
    """Every candidate that beats b also beats a."""
    return all(m.margin(c, a) > 0 for c in candidates if m.margin(c, b) > 0)


def uc_gillies(profile: Profile) -> WinnerSet:
    """Nobody both left-covers and pairwise defeats a winner."""
    m = majority_matrix(profile)
    cands = profile.candidates
    return frozenset(
        a
        for a in cands
        if not any(
            m.margin(b, a) > 0 and _left_covers(m, cands, b, a) for b in cands if b != a
        )
    )


def uc_fishburn(profile: Profile) -> WinnerSet:
    """Nobody left-covers a winner without being left-covered back."""
    m = majority_matrix(profile)
    cands = profile.candidates
    return frozenset(
        a
        for a in cands
        if not any(
            _left_covers(m, cands, b, a) and not _left_covers(m, cands, a, b)
            for b in cands
            if b != a
        )
    )


def condorcet_winner(profile: Profile) -> str | None:
    """The candidate beating all others head-to-head, if one exists."""
    m = majority_matrix(profile)
    for a in profile.candidates:
        if all(m.margin(a, b) > 0 for b in profile.candidates if b != a):
            return a
    return None
