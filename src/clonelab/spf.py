"""Ranking-valued voting rules (social preference functions).

These return a non-empty frozenset of complete rankings rather than a winner
set.  Ties in the underlying procedure produce several rankings; the
voter-indexed variants are always single-valued.  Each rule is a masked
entry, as the winner rules of :mod:`clonelab.scf` are: bound to a profile
(and voter i), it maps a mask of candidate codes to the rankings of that
field as orders of codes, and the public rule names them on the full mask.

The elimination-order rules (``stv*``, ``nr``, ``nr_i``, ``nnr_i``) run on
the elimination engine of :mod:`clonelab.scf`, which reads the profile's
integer core: running candidates are bitmasks, the reversed profile's first
places are the core's ballots read backwards, and no profile is built per
round.  ``stv*`` and ``nr`` keep one memo of orders per binding, and ``nr``
one of the reversed profile's STV winners, since both depend only on the
running set.  ``bp*`` and ``rp*`` read the margin rows cut to the mask.

Two ballot surgeries live here too: ``neg`` collapses a candidate block to a
fresh name placed where the block's best member sat (for the ranking-level
independence check), and ``substitute`` splices a ranking of clones into the
seat of their meta-candidate; the composition check splices with ``chain``.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Iterable

from . import scf
from .clones import EnumerationCapExceeded
from .profiles import Profile, Ranking
from .scf import (
    WinnerSet,
    _bits,
    _fewest,
    _masked,
    _on_margins,
    _peel,
    _rp_i_order,
    _seats,
    _stv_i_order,
    _stv_winners,
    _voter_seats,
    _widest_paths,
    rp_put_rankings,
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
Orders = frozenset[tuple[int, ...]]  # rankings as orders of candidate codes
Spf = Callable[[Profile], RankingSet]


# ---------------------------------------------------------------------------
# ballot surgery


def neg(ranking: Ranking, block: Iterable[str], z: str) -> Ranking:
    """Collapse ``block`` to the fresh candidate ``z`` on one ballot.

    ``z`` takes the seat of the block's highest-ranked member; the other
    members disappear.  ``z`` must not already be on the ballot.  The ballot
    may hold candidate codes instead of names, ``block`` and ``z`` too.
    """
    members = frozenset(block)
    if not members:
        raise ValueError("block must be non-empty")
    if z in ranking:
        raise ValueError(f"{z!r} already appears on the ballot")
    stray = members - set(ranking)
    if stray:
        raise ValueError(f"block members {sorted(stray)} missing from ballot")
    head = next(k for k, c in enumerate(ranking) if c in members)  # the block's best seat
    return (*ranking[:head], z, *(c for c in ranking[head:] if c not in members))


def substitute(ranking: Ranking, a: str, inner: Ranking) -> Ranking:
    """Replace candidate ``a`` on one ballot by the ranking ``inner``."""
    if a not in ranking:
        raise ValueError(f"{a!r} does not appear on the ballot")
    if not inner:
        raise ValueError("substituted ranking must be non-empty")
    clash = (set(ranking) - {a}) & set(inner)
    if clash:
        raise ValueError(f"substituted names {sorted(clash)} already on the ballot")
    return tuple(chain.from_iterable(inner if c == a else (c,) for c in ranking))


# ---------------------------------------------------------------------------
# elimination-order rules


def _orders(losers: Callable[[int], list[int]], mask: int, memo: dict) -> list[tuple[int, ...]]:
    """Every order in which the codes of ``mask`` can be eliminated one a
    round, survivor first, when ``losers(running)`` lists the codes that may
    go out of the running mask; each is followed.  No order comes twice, so they
    are listed, not hashed.  ``memo`` maps each mask searched so far to its
    orders; the binding makes it, so it goes with the binding."""
    if not mask & (mask - 1):
        return [(mask.bit_length() - 1,)]
    out = memo.get(mask)
    if out is None:
        out = memo[mask] = [
            head + (loser,)
            for loser in losers(mask)
            for head in _orders(losers, mask & ~(1 << loser), memo)
        ]
    return out


@_masked
def stv_star(profile: Profile) -> Callable[[int], Orders]:
    """All STV rankings: candidates ordered by reverse elimination, every
    plurality tie branched."""
    core = profile._core
    losers, memo = partial(_fewest, core.ballots, core.weights), {}
    return lambda mask: frozenset(_orders(losers, mask, memo))


@_masked
def stv_i_star(profile: Profile, i: int) -> Callable[[int], Orders]:
    """The single STV ranking with voter i breaking elimination ties."""
    ballots, weights = profile._core.ballots, profile._core.weights
    seat = _voter_seats(profile, i)
    return lambda mask: frozenset({tuple(reversed(_stv_i_order(ballots, weights, mask, seat)))})


@_masked
def nr_star(profile: Profile) -> Callable[[int], Orders]:
    """Nested runoff: each round eliminates an STV winner of the reversed
    profile (the consensually worst candidate), branching on ties.

    The reversed profile's STV winners from a running set depend only on that
    set, so one memo of them serves every round of every branch.
    """
    core = profile._core
    back, weights = [b[::-1] for b in core.ballots], core.weights
    worst: dict[int, int] = {}
    memo: dict[int, list[tuple[int, ...]]] = {}

    def losers(running: int) -> list[int]:
        return _bits(_stv_winners(back, weights, running, worst))

    return lambda mask: frozenset(_orders(losers, mask, memo))


@_masked
def nr_i_star(profile: Profile, i: int) -> Callable[[int], Orders]:
    """Nested runoff where the reversed-profile STV uses voter i's reversed
    ballot for ties; single-valued."""
    core = profile._core
    back, weights = [b[::-1] for b in core.ballots], core.weights
    seat = _voter_seats(profile, i)
    back_seat = [len(seat) - 1 - k for k in seat]

    def loser(running: int) -> int:
        return _stv_i_order(back, weights, running, back_seat)[-1]

    return lambda mask: frozenset({tuple(reversed(_peel(mask, loser)))})


@_masked
def nnr_i_star(profile: Profile, i: int) -> Callable[[int], Orders]:
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

    return lambda mask: frozenset({tuple(reversed(_peel(mask, anti_winner)))})


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


@_on_margins
def bp_star(rows, cap: int = 10_000) -> Orders:
    """All linearisations of the strict widest-path relation.

    Raises:
        EnumerationCapExceeded: when more than ``cap`` rankings exist.
    """
    s = _widest_paths(rows)
    above = [sum(1 << d for d, sd in enumerate(s) if sd[c] > s[c][d]) for c in range(len(s))]
    orders: list[tuple[int, ...]] = []
    _linear_extensions(above, (1 << len(s)) - 1, [], orders, cap)
    return frozenset(orders)


@_masked
def rp_star(profile: Profile) -> Callable[[int], Orders]:
    """Every ranked-pairs order over all tie-processing orders."""
    return rp_put_rankings._on(profile)


@_masked
def rp_i_star(profile: Profile, i: int) -> Callable[[int], Orders]:
    """The single ranked-pairs order under voter i's priority order."""
    rows, seat = profile._core.rows, _voter_seats(profile, i)
    return lambda mask: frozenset({tuple(_rp_i_order(rows, mask, seat))})


@_masked
def rp_n_star(profile: Profile) -> Callable[[int], Orders]:
    """Union of ``rp_i_star`` over every voter."""
    core = profile._core
    rows, seats = core.rows, [_seats(ballot) for ballot in core.ballots]
    return lambda mask: frozenset(tuple(_rp_i_order(rows, mask, seat)) for seat in seats)


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
Every rule carries its masked entry as ``_on`` (see :mod:`clonelab.scf`), and
so does the callable :func:`_resolve_id` binds to voter i."""

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
        indexed = partial(fn._on, i=i)  # the masked entry, bound to voter i
        indexed.__name__, indexed.__doc__ = name.replace(":", "_").replace("*", "_star"), fn.__doc__
        return _masked(indexed)
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
