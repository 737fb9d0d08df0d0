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

Both ranked-pairs flavours share one lock step over candidate codes: the
locked graph is kept as its closure, one bitmask per candidate of everyone
it leads to, so a pair is tested with one bit and locked with one pass, and
the order is read off by how many each candidate leads to.  ``rp_i`` locks
in voter i's priority order; ``rp_put`` searches closures, not sets of
locked pairs.  PUT winner determination is NP-complete (Brill & Fischer,
AAAI 2012), and the search has no cap.

The elimination rules (``stv``, ``stv_i``, ``alt_smith`` here; ``stv*``,
``nr``, ``nr_i`` and ``nnr_i`` in :mod:`clonelab.spf`) share one engine on
the same core: the distinct ballots as candidate codes with their weights,
and sets of running candidates as integer bitmasks.  A tally counts each
distinct ballot's top among a mask; reading the ballots backwards gives the
last places, so a reversed restriction is never built.  Searches over tie
branches recurse through module-level functions over one memo keyed by
mask, which the calling rule makes, so it goes when the rule returns.  A
run with one voter settling ties moves each ballot's top pointer only when
its top goes out, O(k·m) for the whole run.  Plurality (``pv``, ``first_place_counts``) stays
one pass over the public groups: a single tally does not repay building the
core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

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
    """Plurality tally, optionally restricted to the ``among`` candidates.

    Raises:
        ValueError: when ``among`` is a string, is empty or names a
            candidate the profile does not have.
    """
    if among is None:
        pool = set(profile.candidates)
    else:
        if isinstance(among, str):
            raise ValueError(f"among must be a collection of candidate names, not the string {among!r}")
        pool = set(among)
        if not pool:
            raise ValueError("among must name at least one candidate")
        unknown = pool - set(profile.candidates)
        if unknown:
            raise ValueError(f"cannot count unknown candidate(s) {sorted(unknown)}")
    counts = dict.fromkeys(pool, 0)
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
# the elimination engine: distinct ballots as codes, candidate sets as bitmasks


def _bits(mask: int) -> list[int]:
    """The codes of the candidates in ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _full(profile: Profile) -> int:
    """The mask of every candidate of the profile."""
    return (1 << len(profile.candidates)) - 1


def _names(profile: Profile, mask: int) -> WinnerSet:
    """The names of the candidates in ``mask``."""
    cands = profile.candidates
    return frozenset(cands[c] for c in _bits(mask))


def _fewest(ballots, weights, mask: int) -> list[int]:
    """The candidates of ``mask`` with the fewest weighted first places
    among ``mask`` on ``ballots``."""
    counts: dict[int, int] = {}
    for ballot, weight in zip(ballots, weights):
        for c in ballot:
            if mask >> c & 1:
                counts[c] = counts.get(c, 0) + weight
                break
    unplaced = mask & ~sum(1 << c for c in counts)
    if unplaced:  # candidates no ballot puts first tie at zero
        return _bits(unplaced)
    low = min(counts.values())
    return [c for c, v in counts.items() if v == low]


def _stv_winners(
    ballots, weights, mask: int, memo: dict[int, int], cut: Callable[[int], int] | None = None
) -> int:
    """STV under every tie-breaking on ``ballots``: the mask of those who can
    win from the running ``mask``.  With ``cut``, each round first narrows the
    running mask to ``cut(mask)``.  ``memo`` maps each mask searched so far to
    its winners; the caller makes it, so it goes when the caller is done."""
    if not mask & (mask - 1):
        return mask
    won = memo.get(mask)
    if won is None:
        inner = mask if cut is None else cut(mask)
        if inner != mask:
            won = _stv_winners(ballots, weights, inner, memo, cut)
        else:
            won = 0
            for loser in _fewest(ballots, weights, mask):
                won |= _stv_winners(ballots, weights, mask & ~(1 << loser), memo, cut)
        memo[mask] = won
    return won


def _stv_i_order(ballots, weights, mask: int, seat) -> list[int]:
    """The codes of ``mask`` in the order STV on ``ballots`` eliminates them
    when each tie for fewest first places drops the tied candidate with the
    largest ``seat``; the winner comes last.

    ``top[k]`` is where ballot k's top among the running candidates sits on
    it, and ``holders[c]`` lists the ballots whose top is c.  Only the
    holders of an eliminated candidate move on, and no pointer moves back,
    so the whole run costs O(k·m) ballot reads plus O(m²) for the minima.
    """
    counts = dict.fromkeys(_bits(mask), 0)
    holders: dict[int, list[int]] = {c: [] for c in counts}
    top = [-1] * len(ballots)
    moving = range(len(ballots))  # the ballots whose top must move on
    order = []
    while True:
        for k in moving:
            ballot = ballots[k]
            p = top[k] + 1
            while not mask >> ballot[p] & 1:
                p += 1
            top[k] = p
            holders[ballot[p]].append(k)
            counts[ballot[p]] += weights[k]
        if len(counts) == 1:
            order.extend(counts)
            return order
        low = min(counts.values())
        loser = max((c for c, v in counts.items() if v == low), key=seat.__getitem__)
        del counts[loser]
        mask &= ~(1 << loser)
        order.append(loser)
        moving = holders.pop(loser)


def _peel(mask: int, loser_of: Callable[[int], int]) -> list[int]:
    """The codes of ``mask`` in the order a rule drops them, one a round,
    ``loser_of(running)`` naming each round's loser; the survivor comes last."""
    order = []
    while mask & (mask - 1):
        loser = loser_of(mask)
        order.append(loser)
        mask &= ~(1 << loser)
    order.append(mask.bit_length() - 1)
    return order


def _voter_seats(profile: Profile, i: int) -> list[int]:
    """``seat[c]``: the place of candidate code c on voter i's ballot."""
    core = profile._core
    ballot = core.ballots[core.slots[profile._voter_group(i)]]
    seat = [0] * len(ballot)
    for k, c in enumerate(ballot):
        seat[c] = k
    return seat


def _stv_i_codes(profile: Profile, i: int) -> list[int]:
    """:func:`_stv_i_order` over the whole profile, voter i settling ties."""
    core = profile._core
    return _stv_i_order(core.ballots, core.weights, _full(profile), _voter_seats(profile, i))


# ---------------------------------------------------------------------------
# sequential elimination


def stv(profile: Profile) -> WinnerSet:
    """Single transferable vote, parallel-universe tie-breaking.

    Each round eliminates a candidate with the fewest first-place votes; on a
    tie, every choice of eliminee is followed and the survivors are unioned.
    """
    core = profile._core
    return _names(profile, _stv_winners(core.ballots, core.weights, _full(profile), {}))


def stv_i(profile: Profile, i: int) -> WinnerSet:
    """STV with voter i breaking every elimination tie; always decisive.

    Among the candidates tied for fewest first-place votes, the one voter i
    ranks lowest goes out.
    """
    return frozenset({profile.candidates[_stv_i_codes(profile, i)[-1]]})


def stv_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Reverse elimination order of :func:`stv_i` (winner first)."""
    cands = profile.candidates
    return tuple(cands[c] for c in reversed(_stv_i_codes(profile, i)))


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
    rows = profile._core.rows
    pos = _voter_seats(profile, i)  # code -> place on voter i's ballot

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


def _lock(reach: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The closure ``reach`` with a→b locked: bit x of ``reach[c]`` is set
    when the locked graph leads from c to x, so a, and everyone leading to
    a, now also leads to b and to everyone b leads to."""
    gained = reach[b] | 1 << b
    return tuple([rx | gained if x == a or rx >> a & 1 else rx for x, rx in enumerate(reach)])


def _ranking_of(profile: Profile, reach: tuple[int, ...]) -> tuple[str, ...]:
    """The total order a closure locks, read off by how many each candidate
    leads to."""
    order = sorted(range(len(reach)), key=lambda c: -reach[c].bit_count())
    return tuple(profile.candidates[c] for c in order)


def _open(reach: tuple[int, ...], a: int, b: int) -> bool:
    """Does locking a→b change ``reach``: neither implied nor closing a cycle?"""
    return not (reach[a] >> b & 1 or reach[b] >> a & 1)


def rp_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Full ranked-pairs order with voter i's priority order.

    Pairs of non-negative margin are locked in priority order unless the
    locked graph already leads back; see :func:`_lock`.
    """
    rows = profile._core.rows
    reach = (0,) * len(rows)
    for a, b in _priority_pairs(profile, i):
        if rows[a][b] < 0:
            break  # every later pair has a negative margin too
        if _open(reach, a, b):
            reach = _lock(reach, a, b)
    return _ranking_of(profile, reach)


def rp_i(profile: Profile, i: int) -> WinnerSet:
    """Ranked pairs with voter i settling all ties; always decisive."""
    return frozenset({rp_i_ranking(profile, i)[0]})


def _lock_acyclic(reach: tuple[int, ...], group: list[tuple[int, int]]) -> tuple[int, ...]:
    """``reach`` with every pair of ``group`` locked that lies on no cycle of
    the locked graph and the whole group: no order of the group can find
    such a pair closing a cycle, so every order locks it."""
    whole = reach
    for a, b in group:
        whole = _lock(whole, a, b)
    for a, b in group:
        if not whole[b] >> a & 1:
            reach = _lock(reach, a, b)
    return reach


def rp_put_rankings(profile: Profile) -> frozenset[tuple[str, ...]]:
    """Every ranked-pairs order reachable by some tie-breaking order.

    Pairs are taken a margin group at a time, largest first.  Processing a
    group in some order locks a maximal set of its pairs that closes no
    cycle, and which later pairs lock depends only on the closure so far,
    so the search keeps distinct closures and, from each, locks every open
    pair of the group in turn until none is open.  Two shortcuts keep it
    small.  A pair on no cycle of the locked graph and the whole group is
    locked by every order, so it is locked at once.  At margin 0 every
    order ends with an open pair locked one way or the other, and the ends
    with a→b are those of locking a→b first, so the search branches on one
    open pair's two orientations only.
    """
    rows = profile._core.rows
    by_margin: dict[int, list[tuple[int, int]]] = {}
    for a, row in enumerate(rows):
        for b, w in enumerate(row):
            if a != b and w >= 0:
                by_margin.setdefault(w, []).append((a, b))
    states = {(0,) * len(rows)}
    for margin in sorted(by_margin, reverse=True):
        group = by_margin[margin]
        stack = [_lock_acyclic(reach, group) for reach in states]
        seen = set(stack)
        states = set()
        while stack:
            reach = stack.pop()
            pairs = [(a, b) for a, b in group if _open(reach, a, b)]
            if not pairs:
                states.add(reach)
            elif margin == 0:  # the group holds both orientations of each pair
                a, b = pairs[0]
                pairs = [(a, b), (b, a)]
            for nxt in (_lock(reach, a, b) for a, b in pairs):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return frozenset(_ranking_of(profile, reach) for reach in states)


def rp_put(profile: Profile) -> WinnerSet:
    """Ranked pairs, parallel-universe over all pair-processing orders."""
    return frozenset(r[0] for r in rp_put_rankings(profile))


def _distinct_voters(profile: Profile) -> list[int]:
    """For each distinct ranking of the profile, the first voter casting it."""
    voters: list[int] = []
    i = 1
    for slot, (_, mult) in zip(profile._core.slots, profile.groups):
        if slot == len(voters):  # the core numbers rankings as they first appear
            voters.append(i)
        i += mult
    return voters


def rp_n(profile: Profile) -> WinnerSet:
    """Union of ``rp_i`` over every voter of the profile."""
    return frozenset(rp_i_ranking(profile, i)[0] for i in _distinct_voters(profile))


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
    s = _widest_paths(profile._core.rows)
    return frozenset(
        c for a, c in enumerate(profile.candidates) if all(w >= s[b][a] for b, w in enumerate(s[a]))
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


def _digraph(rows, minimum: int) -> list[int]:
    """Bit b of ``arcs[a]`` is set when margin(a, b) >= ``minimum``, b != a."""
    return [
        sum(1 << b for b, w in enumerate(row) if w >= minimum and b != a)
        for a, row in enumerate(rows)
    ]


def _source_components(arcs: list[int], mask: int) -> int:
    """The mask of the union of the source components of the digraph
    ``arcs`` on the candidates of ``mask``: those that reach back everyone
    who reaches them."""
    members = _bits(mask)
    reach = {a: arcs[a] & mask for a in members}  # bit b of reach[a]: a reaches b
    for k, rk in reach.items():
        bit = 1 << k
        for a, ra in reach.items():
            if ra & bit:
                reach[a] = ra | rk
    out = 0
    for a, ra in reach.items():
        ra |= 1 << a
        if all(ra >> b & 1 for b, rb in reach.items() if rb >> a & 1):
            out |= 1 << a
    return out


def smith(profile: Profile) -> WinnerSet:
    """Smallest set whose members beat every outsider head-to-head.

    Beats-or-ties is complete, so its digraph has exactly one source component.
    """
    return _names(profile, _source_components(_digraph(profile._core.rows, 0), _full(profile)))


def schwartz(profile: Profile) -> WinnerSet:
    """Union of the undominated components of the strict-defeat digraph."""
    return _names(profile, _source_components(_digraph(profile._core.rows, 1), _full(profile)))


def alt_smith(profile: Profile) -> WinnerSet:
    """Alternate Smith-set restriction with plurality-loser elimination.

    Repeat: cut the field to its Smith set; if several candidates remain,
    eliminate one with the fewest first-place votes (every tied choice is
    followed and the outcomes unioned).  A restriction's margins are the
    profile's own, so each Smith set is read off the profile's rows.
    """
    core = profile._core
    arcs = _digraph(core.rows, 0)
    won = _stv_winners(
        core.ballots, core.weights, _full(profile), {}, lambda mask: _source_components(arcs, mask)
    )
    return _names(profile, won)


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
