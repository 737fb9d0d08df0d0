"""Single-winner voting rules (social choice functions).

Every rule maps a profile to the non-empty frozenset of tied winners.  Rules
that hinge on sequential tie-breaking come in three flavours here:

* voter-indexed (``rp_i``, ``stv_i``): voter i's ranking settles every tie,
  so the outcome is a single winner;
* parallel-universe (``stv``, ``rp_put``, ``alt_smith``): every way of
  breaking every tie is explored and the winners are unioned;
* union-over-voters (``rp_n``): the union of ``rp_i`` over all voters.

Each of the thirteen registered rules is written once, as its *masked
entry*: bound to a profile (and, voter-indexed, to voter i), it is a
function from a bitmask of candidate codes (places in
``profile.candidates``) to the mask of the winners on the profile restricted
to those candidates (a ranking rule of :mod:`clonelab.spf`: to its rankings
as orders of codes).  The :func:`_masked` decorator makes the public rule
from it: the entry on the full mask, the answer named.  A restriction keeps
every ballot's order among the kept candidates, and so its margins and, for
a voter-indexed rule, voter i's ties, so the entry reads the profile's own
core and never builds the restricted profile.  Binding does what every mask
shares once: voter i's seats, the majority digraphs, and the elimination
memo of running masks.  The callers that elect many sets of one profile
(games, the transform, whose ``^cc`` rules are masked too, and the axiom
checks) reach the entry through the callable's ``_on`` attribute.

Pairwise rules (``beatpath``, ``split_cycle``, ``smith``, ``schwartz``, the
uncovered sets) and ranked pairs only consult the majority margins, and all
of them read the one set of margin rows a profile computes (indexed like
``profile.candidates``; see :mod:`clonelab.profiles`).  On a mask, the
Smith and Schwartz sets and ``rp_i`` read the rows at the mask's codes; the
others run on the rows cut to the mask, and on the rows themselves,
uncopied, when the mask is full.

``rp_i`` locks pairs over candidate codes: the locked graph is kept as its
closure, one bitmask per candidate of everyone it leads to, so a pair is
tested with one bit and locked with one pass, and the order is read off by
how many each candidate leads to; pairs are locked in voter i's priority
order, sorting only the pairs inside the mask.  ``rp_put`` locks nothing:
some tie order reaches a ranking exactly when it is a *weak stack* (Zavist &
Tideman 1989), every x above y joined by a chain descending through it whose
every link has margin at least margin(y, x).  The chain runs between x and
y, so a weak stack's prefixes are weak stacks, and a depth-first search
grows them top-down, never placing y above an x whose margin over y beats
every path from y back to x.  PUT winner determination is NP-complete
(Brill & Fischer, AAAI 2012), and the search has no cap.

The elimination rules (``stv``, ``stv_i``, ``alt_smith`` here; ``stv*``,
``nr``, ``nr_i`` and ``nnr_i`` in :mod:`clonelab.spf`) share one engine on
the same core: the distinct ballots as candidate codes with their weights,
and sets of running candidates as integer bitmasks.  A tally counts each
distinct ballot's top among a mask; reading the ballots backwards gives the
last places, so a reversed restriction is never built.  Searches over tie
branches recurse through module-level functions over one memo keyed by
mask, which the binding makes, so it goes with the binding.  A run with one
voter settling ties moves each ballot's top pointer only when its top goes
out, O(k·m) for the whole run.

Plurality has one tally: ``pv``, the elimination rules and the public
``first_place_counts`` (on the mask of its ``among`` names) all count the
tops of the core's distinct ballots among a mask.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable

from .profiles import Profile, _codes, _name_collection, _PairView

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


# ---------------------------------------------------------------------------
# candidate sets as bitmasks of codes


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


def _masked(entry: Callable[..., Callable[[int], object]]) -> Callable:
    """Decorator making a rule's masked entry its public rule, much as
    :func:`contextlib.contextmanager` makes a generator a context manager.

    The decorated function binds the rule to ``(profile[, i])`` and returns
    the function from a mask to the winners' mask or, for a ranking rule,
    to the frozenset of its rankings as orders of codes; its docstring
    describes the rule.  The public rule runs it on the full mask and names
    the winners or the rankings, and keeps the entry as its ``_on`` attribute.
    """

    def rule(profile: Profile, *i: int, **options):
        out = entry(profile, *i, **options)(_full(profile))
        return _names(profile, out) if isinstance(out, int) else _relabel(out, profile.candidates)

    rule.__name__ = rule.__qualname__ = entry.__name__
    rule.__doc__ = entry.__doc__
    rule._on = entry  # type: ignore[attr-defined]
    return rule


def _relabel(orders, labels) -> frozenset:
    """The orders of places ``orders``, each place k read as ``labels[k]``."""
    if len(labels) == 1:  # itemgetter of one key returns the item, not a tuple
        return frozenset({tuple(labels)})
    return frozenset(itemgetter(*order)(labels) for order in orders)


def _on_margins(rule: Callable[..., Iterable]) -> Callable:
    """Decorator making a masked rule (see :func:`_masked`) from a rule that
    reads only the margins among the running candidates: ``rule(rows)``
    lists the winners' places in the margin rows ``rows`` (a ranking rule:
    gives the frozenset of its orders of places), which a mask cuts from the
    profile's (the rows themselves, uncopied, on the full mask)."""

    def entry(profile: Profile, *args, **options) -> Callable[[int], object]:
        rows = profile._core.rows
        full = (1 << len(rows)) - 1

        def on(mask: int):
            if mask == full:  # places are codes
                codes, cut = range(len(rows)), rows
            else:
                codes = _bits(mask)
                cut = [[row[b] for b in codes] for row in map(rows.__getitem__, codes)]
            out = rule(cut, *args, **options)
            if isinstance(out, frozenset):  # rankings
                return out if mask == full else _relabel(out, codes)
            return sum(1 << codes[k] for k in out)

        return on

    entry.__name__, entry.__doc__ = rule.__name__, rule.__doc__
    return _masked(entry)


# ---------------------------------------------------------------------------
# plurality


def first_place_counts(profile: Profile, among=None) -> dict[str, int]:
    """Plurality tally in candidate order, optionally restricted to the ``among`` candidates.

    Raises:
        ValueError: when ``among`` is a string, is empty or names a
            candidate the profile does not have.
    """
    code_of = _codes(profile.candidates)
    pool = set(profile.candidates if among is None else _name_collection(among, "among"))
    if not pool:
        raise ValueError("among must name at least one candidate")
    unknown = pool - code_of.keys()
    if unknown:
        raise ValueError(f"cannot count unknown candidate(s) {sorted(unknown)}")
    core = profile._core
    tops = _tops(core.ballots, core.weights, sum(1 << code_of[c] for c in pool))
    return {c: tops.get(k, 0) for k, c in enumerate(profile.candidates) if c in pool}


def _tops(ballots, weights, mask: int) -> dict[int, int]:
    """The weighted first places among ``mask`` on ``ballots``, by code;
    candidates no ballot puts first are left out."""
    counts: dict[int, int] = {}
    for ballot, weight in zip(ballots, weights):
        for c in ballot:
            if mask >> c & 1:
                counts[c] = counts.get(c, 0) + weight
                break
    return counts


@_masked
def pv(profile: Profile) -> Callable[[int], int]:
    """Plurality: most first-place votes."""
    core = profile._core

    def on(mask: int) -> int:
        counts = _tops(core.ballots, core.weights, mask)
        best = max(counts.values())
        return sum(1 << c for c, v in counts.items() if v == best)

    return on


# ---------------------------------------------------------------------------
# the elimination engine: distinct ballots as codes, candidate sets as bitmasks


def _fewest(ballots, weights, mask: int) -> list[int]:
    """The candidates of ``mask`` with the fewest weighted first places
    among ``mask`` on ``ballots``."""
    counts = _tops(ballots, weights, mask)
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


def _seats(ballot) -> list[int]:
    """``seat[c]``: the place of candidate code c on the code ``ballot``."""
    seat = [0] * len(ballot)
    for k, c in enumerate(ballot):
        seat[c] = k
    return seat


def _voter_seats(profile: Profile, i: int) -> list[int]:
    """``seat[c]``: the place of candidate code c on voter i's ballot.

    Raises:
        IndexError: when the profile has no voter i.
    """
    core = profile._core
    return _seats(core.ballots[core.slots[profile._voter_group(i)]])


# ---------------------------------------------------------------------------
# sequential elimination


@_masked
def stv(profile: Profile) -> Callable[[int], int]:
    """Single transferable vote, parallel-universe tie-breaking.

    Each round eliminates a candidate with the fewest first-place votes; on a
    tie, every choice of eliminee is followed and the survivors are unioned.
    """
    core = profile._core
    memo: dict[int, int] = {}  # the winners from each running mask, for every mask asked
    return lambda mask: _stv_winners(core.ballots, core.weights, mask, memo)


@_masked
def stv_i(profile: Profile, i: int) -> Callable[[int], int]:
    """STV with voter i breaking every elimination tie; always decisive.

    Among the candidates tied for fewest first-place votes, the one voter i
    ranks lowest goes out.
    """
    core = profile._core
    seat = _voter_seats(profile, i)
    return lambda mask: 1 << _stv_i_order(core.ballots, core.weights, mask, seat)[-1]


def stv_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Reverse elimination order of :func:`stv_i` (winner first)."""
    core, cands = profile._core, profile.candidates
    order = _stv_i_order(core.ballots, core.weights, _full(profile), _voter_seats(profile, i))
    return tuple(cands[c] for c in reversed(order))


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


def _priority_key(rows, seat: list[int]) -> Callable[[tuple[int, int]], tuple]:
    """The sort key of :func:`priority_order` on pairs of candidate codes,
    ``seat`` giving the places on voter i's ballot."""

    def key(ab: tuple[int, int]) -> tuple[int, int, int, int]:
        a, b = ab
        pa, pb = seat[a], seat[b]
        # voter i's rank of the pair {a, b} is the order of (upper, lower) place
        return (-rows[a][b], *((pa, pb) if pa < pb else (pb, pa)), pa)

    return key


def priority_order(profile: Profile, i: int) -> tuple[tuple[str, str], ...]:
    """Strict processing order over ordered pairs for ranked pairs.

    Larger margins first; equal margins settled by voter i's pair ranking;
    the two orientations of a majority-tied pair settled by i's ballot.
    """
    cands, rows = profile.candidates, profile._core.rows
    pairs = ((a, b) for a in range(len(rows)) for b in range(len(rows)) if a != b)
    return tuple(
        (cands[a], cands[b]) for a, b in sorted(pairs, key=_priority_key(rows, _voter_seats(profile, i)))
    )


def _lock(reach: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The closure ``reach`` with a→b locked: bit x of ``reach[c]`` is set
    when the locked graph leads from c to x, so a, and everyone leading to
    a, now also leads to b and to everyone b leads to."""
    gained = reach[b] | 1 << b
    return tuple([rx | gained if x == a or rx >> a & 1 else rx for x, rx in enumerate(reach)])


def _order(reach: tuple[int, ...], mask: int) -> list[int]:
    """The codes of ``mask`` in the total order a closure locks among them,
    top first, read off by how many each candidate leads to."""
    return sorted(_bits(mask), key=lambda c: -reach[c].bit_count())


def _open(reach: tuple[int, ...], a: int, b: int) -> bool:
    """Does locking a→b change ``reach``: neither implied nor closing a cycle?"""
    return not (reach[a] >> b & 1 or reach[b] >> a & 1)


def _rp_i_order(rows, mask: int, seat: list[int]) -> list[int]:
    """The ranked-pairs order of the codes of ``mask``, top first, voter i
    (``seat``) settling ties.

    The pairs inside the mask of non-negative margin are locked in priority
    order unless the locked graph already leads back; see :func:`_lock`.
    """
    members = _bits(mask)
    pairs = [(a, b) for a in members for b in members if a != b and rows[a][b] >= 0]
    pairs.sort(key=_priority_key(rows, seat))
    reach = (0,) * len(rows)
    for a, b in pairs:
        if _open(reach, a, b):
            reach = _lock(reach, a, b)
    return _order(reach, mask)


def rp_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """Full ranked-pairs order with voter i's priority order."""
    order = _rp_i_order(profile._core.rows, _full(profile), _voter_seats(profile, i))
    cands = profile.candidates
    return tuple(cands[c] for c in order)


@_masked
def rp_i(profile: Profile, i: int) -> Callable[[int], int]:
    """Ranked pairs with voter i settling all ties; always decisive."""
    seat = _voter_seats(profile, i)
    rows = profile._core.rows
    return lambda mask: 1 << _rp_i_order(rows, mask, seat)[0]


def _weak_stacks(rows, above, order: list[int], left: int, wide):
    """Every weak stack on the margin rows ``rows`` that begins with
    ``order`` and ranks the codes of ``left`` below it, grown top-down in
    code order (see the module notes).

    ``wide[x][z]`` is, for placed x, the widest chain from x to z descending
    through the candidates placed after x; for unplaced x it is ``rows[x]``.
    The next y needs ``wide[x][y] >= rows[y][x]`` for every placed x, and
    no code of ``above[y]`` (see :func:`_must_be_above`) left to place.
    """
    if not left:
        yield order
        return
    for y in _bits(left):
        if above[y] & left:
            continue
        ry = rows[y]
        for x in reversed(order):
            if wide[x][y] < ry[x]:
                break
        else:
            rest = left & ~(1 << y)
            below = _bits(rest)
            grown = list(wide)
            for x in order:
                wx = list(wide[x])
                wxy = wx[y]
                for z in below:
                    through = wxy if wxy < ry[z] else ry[z]
                    if through > wx[z]:
                        wx[z] = through
                grown[x] = wx
            yield from _weak_stacks(rows, above, order + [y], rest, grown)


def _must_be_above(rows) -> list[int]:
    """``above[y]``: bit x set when ``rows[x][y]`` beats every path from y
    back to x, so x is above y in every weak stack."""
    s = _widest_paths(rows)
    return [sum(1 << x for x, rx in enumerate(rows) if rx[y] > sy[x]) for y, sy in enumerate(s)]


@_on_margins
def rp_put_rankings(rows) -> frozenset[tuple[int, ...]]:
    """Every ranked-pairs order reachable by some tie-breaking order: the
    weak stacks of :func:`_weak_stacks`."""
    stacks = _weak_stacks(rows, _must_be_above(rows), [], (1 << len(rows)) - 1, rows)
    return frozenset(map(tuple, stacks))


@_on_margins
def rp_put(rows) -> list[int]:
    """Ranked pairs, parallel-universe over all pair-processing orders: c
    wins when some weak stack ranks c on top."""
    above, full = _must_be_above(rows), (1 << len(rows)) - 1
    tops = [c for c, ac in enumerate(above) if not ac]
    return [c for c in tops if next(_weak_stacks(rows, above, [c], full & ~(1 << c), rows), None)]


@_masked
def rp_n(profile: Profile) -> Callable[[int], int]:
    """Union of ``rp_i`` over every voter of the profile.

    Voters casting one ranking elect alike, and so do rankings that become
    equal on a mask, so the union runs over the profile's distinct rankings.
    """
    core = profile._core
    rows = core.rows
    seats = [_seats(ballot) for ballot in core.ballots]

    def on(mask: int) -> int:
        won = 0
        for seat in seats:
            won |= 1 << _rp_i_order(rows, mask, seat)[0]
        return won

    return on


# ---------------------------------------------------------------------------
# pairwise-margin rules


class StrengthMatrix(_PairView):
    """Widest-path strengths over the positive-margin digraph."""

    strength = _PairView._at


def _widest_paths(margins) -> list[list[int]]:
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
    return StrengthMatrix(candidates=cands, _rows=tuple(map(tuple, s)), _index=_codes(cands))


@_on_margins
def beatpath(rows) -> list[int]:
    """Beats-or-ties everyone in widest-path strength."""
    s = _widest_paths(rows)
    return [a for a, sa in enumerate(s) if all(w >= s[b][a] for b, w in enumerate(sa))]


@_on_margins
def split_cycle(rows) -> list[int]:
    """Discard each cycle's weakest defeats simultaneously; undefeated win.

    A defeat a→b is the weakest link of some cycle exactly when a path from b
    back to a is at least as wide as margin(a, b), so it survives when its
    margin exceeds the widest-path strength from b to a (Holliday & Pacuit,
    *Split Cycle*, Public Choice 2023).
    """
    s = _widest_paths(rows)
    return [b for b, sb in enumerate(s) if all(row[b] <= sb[a] for a, row in enumerate(rows))]


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


@_masked
def smith(profile: Profile) -> Callable[[int], int]:
    """Smallest set whose members beat every outsider head-to-head.

    Beats-or-ties is complete, so its digraph has exactly one source component.
    """
    arcs = _digraph(profile._core.rows, 0)
    return lambda mask: _source_components(arcs, mask)


@_masked
def schwartz(profile: Profile) -> Callable[[int], int]:
    """Union of the undominated components of the strict-defeat digraph."""
    arcs = _digraph(profile._core.rows, 1)
    return lambda mask: _source_components(arcs, mask)


@_masked
def alt_smith(profile: Profile) -> Callable[[int], int]:
    """Alternate Smith-set restriction with plurality-loser elimination.

    Repeat: cut the field to its Smith set; if several candidates remain,
    eliminate one with the fewest first-place votes (every tied choice is
    followed and the outcomes unioned).  A restriction's margins are the
    profile's own, so each Smith set is read off the profile's rows.
    """
    core = profile._core
    arcs = _digraph(core.rows, 0)
    memo: dict[int, int] = {}  # the winners from each running mask, for every mask asked

    def cut(mask: int) -> int:
        return _source_components(arcs, mask)

    return lambda mask: _stv_winners(core.ballots, core.weights, mask, memo, cut)


# ---------------------------------------------------------------------------
# uncovered sets: bit c of ``beaten[a]`` is set when c strictly beats a (the
# strict-defeat digraph of the transposed rows); b left-covers a when every
# candidate beating b beats a, i.e. ``beaten[b]`` lies within ``beaten[a]``


@_on_margins
def uc_gillies(rows) -> list[int]:
    """Nobody both left-covers and pairwise defeats a winner."""
    beaten = _digraph([*zip(*rows)], 1)
    return [
        a
        for a in range(len(rows))
        if not any(rows[b][a] > 0 and not beaten[b] & ~beaten[a] for b in range(len(rows)) if b != a)
    ]


@_on_margins
def uc_fishburn(rows) -> list[int]:
    """Nobody left-covers a winner without being left-covered back."""
    beaten = _digraph([*zip(*rows)], 1)
    return [
        a
        for a, ba in enumerate(beaten)
        if not any(not bb & ~ba and ba & ~bb for b, bb in enumerate(beaten) if b != a)
    ]


def condorcet_winner(profile: Profile) -> str | None:
    """The candidate beating all others head-to-head, if one exists."""
    for a, row in enumerate(profile._core.rows):
        if all(w > 0 for b, w in enumerate(row) if b != a):
            return profile.candidates[a]
    return None
