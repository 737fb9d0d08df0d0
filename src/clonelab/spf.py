"""Ranking-valued voting rules (social preference functions).

These return a non-empty frozenset of complete rankings rather than a winner
set.  Ties in the underlying procedure produce several rankings; the
voter-indexed variants are always single-valued.

The elimination-order rules (``stv*``, ``nr``, ``nr_i``, ``nnr_i``) run on
the elimination engine of :mod:`clonelab.scf`, which reads the profile's
integer core: running candidates are bitmasks, the reversed profile's first
places are the core's ballots read backwards, and no profile is built per
round.  ``nr`` keeps one memo of the reversed profile's STV winners per
call, since they depend only on the running set.

Two ballot surgeries live here too: ``neg`` collapses a candidate block to a
fresh name placed where the block's best member sat (for the ranking-level
independence check), and ``substitute`` splices a ranking of clones into the
seat of their meta-candidate; the composition check splices with ``chain``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from . import scf
from .clones import EnumerationCapExceeded
from .profiles import Profile, Ranking
from .scf import (
    WinnerSet,
    _bits,
    _fewest,
    _full,
    _peel,
    _stv_i_order,
    _stv_winners,
    _voter_seats,
    _widest_paths,
    rp_i_ranking,
    rp_put_rankings,
    stv_i_ranking,
)

__all__ = [
    "RankingSet",
    "SPF_IDS",
    "neg",
    "substitute",
    "stv_star",
    "bp_star",
    "rp_star",
    "rp_i_star",
    "rp_n_star",
    "stv_i_star",
    "nr_star",
    "nr_i_star",
    "nnr_i_star",
    "resolve_spf",
    "spf_to_scf",
]

RankingSet = frozenset[Ranking]
Spf = Callable[[Profile], RankingSet]


# ---------------------------------------------------------------------------
# ballot surgery


def neg(ranking: Ranking, block: Iterable[str], z: str) -> Ranking:
    """Collapse ``block`` to the fresh candidate ``z`` on one ballot.

    ``z`` takes the seat of the block's highest-ranked member; the other
    members disappear.  ``z`` must not already be on the ballot.
    """
    members = frozenset(block)
    if not members:
        raise ValueError("block must be non-empty")
    if z in ranking:
        raise ValueError(f"{z!r} already appears on the ballot")
    stray = members - set(ranking)
    if stray:
        raise ValueError(f"block members {sorted(stray)} missing from ballot")
    out: list[str] = []
    seen_block = False
    for c in ranking:
        if c in members:
            if not seen_block:
                out.append(z)
                seen_block = True
        else:
            out.append(c)
    return tuple(out)


def substitute(ranking: Ranking, a: str, inner: Ranking) -> Ranking:
    """Replace candidate ``a`` on one ballot by the ranking ``inner``."""
    if a not in ranking:
        raise ValueError(f"{a!r} does not appear on the ballot")
    if not inner:
        raise ValueError("substituted ranking must be non-empty")
    clash = (set(ranking) - {a}) & set(inner)
    if clash:
        raise ValueError(f"substituted names {sorted(clash)} already on the ballot")
    out: list[str] = []
    for c in ranking:
        if c == a:
            out.extend(inner)
        else:
            out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# elimination-order rules


def _orders(
    cands: Ranking, losers: Callable[[int], list[int]], mask: int, memo: dict[int, RankingSet]
) -> RankingSet:
    """Every order in which the codes of ``mask`` can be eliminated one a
    round, survivor first, as rankings of ``cands``, when ``losers(running)``
    lists the codes that may go out of the running mask; each is followed.
    ``memo`` maps each mask searched so far to its orders; the caller makes
    it, so it goes when the caller is done."""
    if not mask & (mask - 1):
        return frozenset({(cands[mask.bit_length() - 1],)})
    out = memo.get(mask)
    if out is None:
        out = memo[mask] = frozenset({
            head + (cands[loser],)
            for loser in losers(mask)
            for head in _orders(cands, losers, mask & ~(1 << loser), memo)
        })
    return out


def stv_star(profile: Profile) -> RankingSet:
    """All STV rankings: candidates ordered by reverse elimination, every
    plurality tie branched."""
    core = profile._core
    return _orders(
        profile.candidates, lambda mask: _fewest(core.ballots, core.weights, mask), _full(profile), {}
    )


def stv_i_star(profile: Profile, i: int) -> RankingSet:
    """The single STV ranking with voter i breaking elimination ties."""
    return frozenset({stv_i_ranking(profile, i)})


def nr_star(profile: Profile) -> RankingSet:
    """Nested runoff: each round eliminates an STV winner of the reversed
    profile (the consensually worst candidate), branching on ties.

    The reversed profile's STV winners from a running set depend only on that
    set, so one memo of them serves every round of every branch.
    """
    core = profile._core
    back, weights = [b[::-1] for b in core.ballots], core.weights
    worst: dict[int, int] = {}
    return _orders(
        profile.candidates,
        lambda mask: _bits(_stv_winners(back, weights, mask, worst)),
        _full(profile),
        {},
    )


def _ranking(profile: Profile, order: list[int]) -> RankingSet:
    """The one ranking that reverses an elimination order of codes."""
    cands = profile.candidates
    return frozenset({tuple(cands[c] for c in reversed(order))})


def nr_i_star(profile: Profile, i: int) -> RankingSet:
    """Nested runoff where the reversed-profile STV uses voter i's reversed
    ballot for ties; single-valued."""
    core = profile._core
    back, weights = [b[::-1] for b in core.ballots], core.weights
    seat = _voter_seats(profile, i)
    back_seat = [len(seat) - 1 - k for k in seat]
    return _ranking(
        profile, _peel(_full(profile), lambda mask: _stv_i_order(back, weights, mask, back_seat)[-1])
    )


def nnr_i_star(profile: Profile, i: int) -> RankingSet:
    """Doubly nested runoff: the reversed profile's *nested-runoff* winner is
    eliminated each round; single-valued.

    Nested runoff on the reversed profile runs its inner STV on the ballots
    the right way up, with voter i's own ballot settling ties.
    """
    core = profile._core
    ballots, weights = core.ballots, core.weights
    seat = _voter_seats(profile, i)

    def anti_winner(mask: int) -> int:
        return _peel(mask, lambda inner: _stv_i_order(ballots, weights, inner, seat)[-1])[-1]

    return _ranking(profile, _peel(_full(profile), anti_winner))


# ---------------------------------------------------------------------------
# pairwise and locked-graph rules


def _linear_extensions(above: list[int], mask: int, head: list[int], out: list, cap: int) -> None:
    """Append to ``out`` every order of the codes in ``mask`` after ``head``
    that puts no code c above a code of ``above[c]``.

    Raises:
        EnumerationCapExceeded: when a (cap+1)-th order is found.
    """
    if not mask:
        if len(out) >= cap:
            raise EnumerationCapExceeded(f"more than {cap} rankings; raise the cap to enumerate")
        out.append(tuple(head))
        return
    for c in _bits(mask):
        if not above[c] & mask:
            head.append(c)
            _linear_extensions(above, mask & ~(1 << c), head, out, cap)
            head.pop()


def bp_star(profile: Profile, cap: int = 10_000) -> RankingSet:
    """All linearisations of the strict widest-path relation.

    Raises:
        EnumerationCapExceeded: when more than ``cap`` rankings exist.
    """
    s = _widest_paths(profile._core.rows)
    above = [sum(1 << d for d, sd in enumerate(s) if sd[c] > s[c][d]) for c in range(len(s))]
    orders: list[tuple[int, ...]] = []
    _linear_extensions(above, _full(profile), [], orders, cap)
    cands = profile.candidates
    return frozenset(tuple(cands[c] for c in order) for order in orders)


def rp_star(profile: Profile) -> RankingSet:
    """Every ranked-pairs order over all tie-processing orders."""
    return rp_put_rankings(profile)


def rp_i_star(profile: Profile, i: int) -> RankingSet:
    """The single ranked-pairs order under voter i's priority order."""
    return frozenset({rp_i_ranking(profile, i)})


def _distinct_voters(profile: Profile) -> list[int]:
    """For each distinct ranking of the profile, the first voter casting it."""
    voters: list[int] = []
    i = 1
    for slot, (_, mult) in zip(profile._core.slots, profile.groups):
        if slot == len(voters):  # the core numbers rankings as they first appear
            voters.append(i)
        i += mult
    return voters


def rp_n_star(profile: Profile) -> RankingSet:
    """Union of ``rp_i_star`` over every voter."""
    return frozenset(rp_i_ranking(profile, i) for i in _distinct_voters(profile))


# ---------------------------------------------------------------------------
# registry


_RULES: dict[tuple[str, str], tuple[Callable, str | None]] = {
    ("scf", "as"): (scf.alt_smith, None),
    ("scf", "bp"): (scf.beatpath, None),
    ("scf", "pv"): (scf.pv, None),
    ("scf", "rp"): (scf.rp_put, None),
    ("scf", "rp_n"): (scf.rp_n, None),
    ("scf", "sc"): (scf.split_cycle, None),
    ("scf", "schwartz"): (scf.schwartz, None),
    ("scf", "smith"): (scf.smith, None),
    ("scf", "stv"): (scf.stv, None),
    ("scf", "ucf"): (scf.uc_fishburn, None),
    ("scf", "ucg"): (scf.uc_gillies, None),
    ("scf", "rp_i"): (scf.rp_i, ""),
    ("scf", "stv_i"): (scf.stv_i, ""),
    ("spf", "bp*"): (bp_star, None),
    ("spf", "nr"): (nr_star, None),
    ("spf", "nnr_i"): (nnr_i_star, ""),
    ("spf", "nr_i"): (nr_i_star, ""),
    ("spf", "rp*"): (rp_star, None),
    ("spf", "rp_i"): (rp_i_star, "*"),
    ("spf", "rp_n*"): (rp_n_star, None),
    ("spf", "stv*"): (stv_star, None),
    ("spf", "stv_i"): (stv_i_star, ""),
}
"""The one rule-id registry: (kind, id) → (rule, suffix after ``:<i>``), kind
``scf`` for winner rules and ``spf`` for ranking rules; the suffix is ``None``
for plain ids, and voter-indexed rules take the index as a second argument.
Every winner rule carries its masked entry as ``_on`` (see :mod:`clonelab.scf`),
and so does the callable :func:`_resolve_id` binds to voter i."""

def _rule_ids(kind: str) -> tuple[str, ...]:
    """Printable ids of one kind, indexed ones written ``<id>:<i><suffix>``."""
    return tuple(
        rid if suffix is None else f"{rid}:<i>{suffix}"
        for (k, rid), (_, suffix) in _RULES.items()
        if k == kind
    )


def _resolve_id(kind: str, rule_id: str) -> Callable:
    """The rule of ``kind`` named ``rule_id``, with ``<id>:<i>`` binding voter i."""
    label = "rule id" if kind == "scf" else "ranking rule id"
    name = rule_id.strip()
    head, sep, tail = name.partition(":")
    fn, suffix = _RULES.get((kind, head), (None, None))
    if fn is not None and not sep and suffix is None:
        return fn
    if sep and suffix is not None:
        if suffix and not tail.endswith(suffix):
            raise ValueError(f"unknown {label} {rule_id!r} (did you mean {name}{suffix}?)")
        digits = tail[: len(tail) - len(suffix)]
        try:
            i = int(digits)
        except ValueError:
            raise ValueError(f"bad voter index {digits!r} in {label} {rule_id!r}") from None
        if i < 1:
            raise ValueError(f"voter index must be >= 1 in {label} {rule_id!r}")
        def indexed(profile: Profile, _f=fn, _i=i):
            return _f(profile, _i)
        indexed.__name__ = name.replace(":", "_").replace("*", "_star")
        if hasattr(fn, "_on"):  # a winner rule's masked entry, bound to voter i too
            indexed._on = partial(fn._on, i=i)
        return indexed
    raise ValueError(f"unknown {label} {rule_id!r} (known: {', '.join(_rule_ids(kind))})")


SPF_IDS = _rule_ids("spf")
"""Accepted ranking-rule identifiers."""


def resolve_spf(spf: str | Spf) -> Spf:
    """Turn a ranking-rule id into a callable; callables pass through."""
    if callable(spf):
        return spf
    return _resolve_id("spf", spf)


def spf_to_scf(spf: str | Spf) -> Callable[[Profile], WinnerSet]:
    """Project a ranking rule to the winner rule taking each ranking's top."""
    fn = resolve_spf(spf)

    def tops(profile: Profile) -> WinnerSet:
        return frozenset(r[0] for r in fn(profile))

    tops.__name__ = f"tops_of_{getattr(fn, '__name__', 'spf')}"
    return tops
