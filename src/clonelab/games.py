"""Strategic candidacy games over a fixed voter profile.

Candidates choose to Run or Drop; voters are honest; a candidate's utility
is ``m − d(a, winner)`` where d is the clone distance on the *original*
profile (so a wants the winner as close to her clone-wise as possible, and
winning herself is worth m).  An empty election is worth 0 to everyone.

Two game forms share these utilities:

* the one-shot form: everyone decides simultaneously, and the rule runs on
  the profile restricted to the runners;
* the staged form: the rule's clone-collapsing transform walks the PQ-tree
  (as intervals of voter 1's ranking, as :mod:`clonelab.transform` does)
  and a candidate is asked only when the walk reaches her parent node.  At a
  P node all leaf children are asked at once and the droppers are removed
  from the block summary before the rule picks a branch; at a Q node the
  rule compares the first two blocks in majority order, which designates an
  end of the string, and the walk proceeds from that end, asking each leaf
  (a Run answer wins on the spot) and descending into each internal block.
  A block whose members have all dropped is removed and its parent decides
  again among the remaining blocks.

Rules must be decisive (a single winner on every non-empty restriction),
which is enforced when the game is built, and neutral: the winners may not
depend on the candidates' names, nor on the order ``profile.candidates``
lists them.  Every block a staged decision shows is a clone set of the
profile, consecutive on every ballot, so the block summary is the field of
one representative per block with those candidates renamed to their blocks:
the same ballots, voters and ties.  A neutral rule therefore picks the block
whose representative wins that field, and the staged form reads every
decision from the one-shot table.

Cost model.  Building a game elects its 2^m − 1 fields, each as a mask of
candidate codes, into one table indexed by mask; after that neither form
calls the rule again.  A registered rule runs its masked entry on the
profile's own core (:mod:`clonelab.scf`), bound once per game, so voter i's
seats, the majority digraphs and the elimination memo serve every field,
and the margin rows are counted only where they are read (a plain
``stv_i`` game reads them only to orient a Q node of the profile's tree).
A ``^cc`` id's entry walks each field's own table of clone intervals, cut
from the core, and elects each node's blocks as a mask of the profile, each
distinct mask once per game (:mod:`clonelab.transform`).  Any other callable
is shown each field as a profile cut from the core with no name checks
(:func:`clonelab.profiles._derive`), its margin rows cut from the profile's,
counted once.  The staged form walks the profile's own table the
same way, so no game builds a PQ-tree: building a game splits each
internal node once (:func:`clonelab.pqtree._split`, a Q node's children in
majority reading order) and keeps its kind and children as intervals of
voter 1's ranking.  A P node's children need no stored order, since all its
leaves are asked at once and the rule's choice is read by mask.  The clone
distances are read from the same table, O(m²) per pair
(:func:`clonelab.clones.clone_metric` reads it too), into a table of
utilities by candidate code.  Plays are kept by the runners' mask.  Names
appear only at the edges: :func:`utility`, :func:`lambda_play`,
:class:`PlayResult` and the witnesses.  :func:`utility` and
:func:`lambda_play` check every name they are given, and each of the three
analyses the candidate it is asked about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Mapping

from .clones import _clone_distance, _clone_intervals
from .profiles import Profile, _codes, _name_collection
from .pqtree import _split
from .scf import _bits
from .transform import _Elector, rule_label

__all__ = [
    "RUN",
    "DROP",
    "GameSpec",
    "IndecisiveRuleError",
    "PlayResult",
    "utility",
    "gamma_dominant_run",
    "gamma_obviously_dominant_run",
    "lambda_play",
    "lambda_obviously_dominant_run",
]

RUN = "R"
DROP = "D"


class IndecisiveRuleError(ValueError):
    """The rule tied somewhere a single winner was required."""


def _single_winner(profile: Profile, field: int, won: int) -> int:
    """The code of the one candidate in ``won``, the winners of ``field``."""
    if not won or won & (won - 1):
        cands = profile.candidates
        raise IndecisiveRuleError(
            f"rule ties on candidates {[cands[c] for c in _bits(field)]}: "
            f"{sorted(cands[c] for c in _bits(won))}; candidacy games need a decisive rule"
        )
    return won.bit_length() - 1


def _record(factory: Callable = dict):
    """A private per-game table, left out of ``__init__``, repr, equality and
    hashing, so it goes away with the game."""
    return field(default_factory=factory, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PlayResult:
    """Outcome of one staged play: the winner (None if everyone standing
    dropped) and exactly the candidates who were asked."""

    winner: str | None
    asked: frozenset[str]


@dataclass(frozen=True)
class GameSpec:
    """A candidacy game: profile, decisive rule, and form ("gamma" = one-shot,
    "lambda" = staged on the PQ-tree, walked as intervals of voter 1's ranking)."""

    profile: Profile
    rule: str | Callable
    form: str = "gamma"
    _winners: list[int] = _record(list)  # field mask -> winner's code; -1 at the empty field
    _payoff: list[list[int]] = _record(list)  # [a][w]: a's utility when w wins; 0 at w = -1
    _code: dict[str, int] = _record()  # candidate's name -> code
    _nodes: dict = _record()  # internal node (i, j) -> (kind, children), as _split gives them
    _plays: dict[int, tuple[int, int]] = _record()  # runners' mask -> (winner's code, asked mask)

    def __post_init__(self) -> None:
        if self.form not in ("gamma", "lambda"):
            raise ValueError(f"unknown game form {self.form!r}")
        profile = self.profile
        m = profile.m
        elect = _Elector(self.rule, profile)
        winners = self._winners
        winners.extend([-1] * (1 << m))
        for size in range(1, m + 1):
            for kept in combinations(range(m), size):  # the fields, by candidate code
                mask = sum(1 << c for c in kept)
                winners[mask] = _single_winner(profile, mask, elect(mask))
        self._code.update(_codes(profile.candidates))
        codes, table, _ = _clone_intervals(profile)  # codes[i]: the code of voter 1's i-th choice
        pay = self._payoff
        pay.extend([0] * (m + 1) for _ in range(m))  # the extra last place: nobody
        for p in range(m):
            for q in range(p, m):
                pay[codes[p]][codes[q]] = pay[codes[q]][codes[p]] = m - _clone_distance(table, p, q)
        todo = [(0, m)]
        while todo:
            i, j = todo.pop()
            if j - i > 1:
                node = self._nodes[i, j] = _split(table, codes, profile._core, i, j)
                todo.extend(node[1])

    @property
    def rule_name(self) -> str:
        return rule_label(self.rule)


def utility(game: GameSpec, a: str, field: Iterable[str]) -> int:
    """Candidate a's utility when exactly ``field`` stands for election."""
    standing = frozenset(_name_collection(field, "field"))
    if a not in game.profile.candidates:
        raise ValueError(f"unknown candidate {a!r}")
    unknown = standing - set(game.profile.candidates)
    if unknown:
        raise ValueError(f"unknown candidate(s) {sorted(unknown)} in the field")
    code = game._code
    return game._payoff[code[a]][game._winners[sum(1 << code[c] for c in standing)]]


def _sorted_names(game: GameSpec, mask: int) -> list[str]:
    """The names of the candidates in ``mask``, sorted."""
    cands = game.profile.candidates
    return sorted(cands[c] for c in _bits(mask))


def _others(game: GameSpec, a: str) -> tuple[int, list[str]]:
    """a's code and the names of the other candidates, sorted."""
    if a not in game.profile.candidates:
        raise ValueError(f"unknown candidate {a!r}")
    return game._code[a], sorted(set(game.profile.candidates) - {a})


def _opponent_fields(game: GameSpec, a: str) -> tuple[int, Iterable[int]]:
    """a's code and every set of other candidates as a mask, smallest first,
    then lexicographic by name."""
    me, others = _others(game, a)
    bits = [1 << game._code[c] for c in others]
    return me, (sum(combo) for k in range(len(bits) + 1) for combo in combinations(bits, k))


def _run_and_drop(game: GameSpec, me: int, others: int) -> tuple[int, int]:
    """The utilities of candidate ``me`` when exactly ``others`` stand besides
    them: running, dropping."""
    pay, won = game._payoff[me], game._winners
    return pay[won[others | 1 << me]], pay[won[others]]


def _worst_run_best_drop(outcomes: Iterable[tuple]) -> tuple | None:
    """The worst Run and the best Drop over ``(run utility, drop utility,
    run context, drop context)`` outcomes, each as ``(utility, context)``
    where first found; None when there is no outcome or the worst Run is at
    least the best Drop, so that Run is obviously dominant."""
    worst_run = best_drop = None
    for u_run, u_drop, run_at, drop_at in outcomes:
        if worst_run is None or u_run < worst_run[0]:
            worst_run = (u_run, run_at)
        if best_drop is None or u_drop > best_drop[0]:
            best_drop = (u_drop, drop_at)
    if worst_run is None or worst_run[0] >= best_drop[0]:
        return None
    return worst_run, best_drop


def gamma_dominant_run(game: GameSpec, a: str) -> tuple[bool, dict | None]:
    """Is Run a (weakly) dominant strategy for ``a`` in the one-shot game?

    Checks every set of opposing runners; returns the first counterexample
    as a witness dict otherwise.
    """
    me, fields = _opponent_fields(game, a)
    for others in fields:
        u_run, u_drop = _run_and_drop(game, me, others)
        if u_run < u_drop:
            return False, {
                "candidate": a,
                "others_running": _sorted_names(game, others),
                "run_utility": u_run,
                "drop_utility": u_drop,
            }
    return True, None


def gamma_obviously_dominant_run(game: GameSpec, a: str) -> tuple[bool, dict | None]:
    """Is Run obviously dominant in the one-shot game?

    All candidates act at once, so ``a`` knows nothing when deciding: the
    worst Run outcome over all opposing fields must be at least the best
    Drop outcome over all opposing fields.
    """
    me, fields = _opponent_fields(game, a)
    found = _worst_run_best_drop(
        (*_run_and_drop(game, me, others), others, others) for others in fields
    )
    if found is None:
        return True, None
    (u_run, run_others), (u_drop, drop_others) = found
    return False, {
        "candidate": a,
        "worst_run_utility": u_run,
        "worst_run_others": _sorted_names(game, run_others),
        "best_drop_utility": u_drop,
        "best_drop_others": _sorted_names(game, drop_others),
    }


# ---------------------------------------------------------------------------
# staged form


def _name(game: GameSpec, winner: int) -> str | None:
    """The name of the candidate with code ``winner``; None at -1, nobody."""
    return None if winner < 0 else game.profile.candidates[winner]


def lambda_play(game: GameSpec, actions: Mapping[str, str]) -> PlayResult:
    """Play the staged game under a full action profile.

    ``actions`` maps every candidate to RUN or DROP.  Candidates are asked
    lazily, per the module docstring; the result records who was asked.
    """
    profile = game.profile
    missing = set(profile.candidates) - set(actions)
    if missing:
        raise ValueError(f"no action given for {sorted(missing)}")
    unknown = set(actions) - set(profile.candidates)
    if unknown:
        raise ValueError(f"actions given for unknown candidate(s) {sorted(unknown)}")
    bad = {c: v for c, v in actions.items() if v not in (RUN, DROP)}
    if bad:
        raise ValueError(f"actions must be {RUN!r} or {DROP!r}, got {bad}")
    winner, asked = _play(game, sum(1 << game._code[c] for c, v in actions.items() if v == RUN))
    return PlayResult(winner=_name(game, winner), asked=frozenset(_sorted_names(game, asked)))


def _play(game: GameSpec, runners: int) -> tuple[int, int]:
    """The staged play in which exactly the candidates of mask ``runners``
    run: the winner's code (-1 when nobody is elected) and the mask of the
    candidates asked.  Walked once per game and set of runners."""
    played = game._plays.get(runners)  # a play depends only on who runs
    if played is not None:
        return played
    nodes, winners = game._nodes, game._winners
    codes = game.profile._core.ballots[0]  # codes[a]: the representative of a child from place a
    asked = 0

    def ask(c: int) -> bool:
        """Ask candidate ``c``; True when they run."""
        nonlocal asked
        asked |= 1 << c
        return bool(runners >> c & 1)

    def process(i: int, j: int) -> int:
        if j - i == 1:  # degenerate one-candidate game
            return codes[i] if ask(codes[i]) else -1
        kind, kids = nodes[i, j]
        gone = 0  # the representatives of children with nobody left standing
        while True:
            alive = [(a, b) for a, b in kids if not gone >> codes[a] & 1]
            if not alive:
                return -1
            if kind == "P":
                for a, b in alive:
                    if b - a == 1 and not ask(codes[a]):
                        gone |= 1 << codes[a]
                shown = sum(1 << codes[a] for a, _ in alive) & ~gone
                if not shown:
                    return -1
                # the block whose representative wins the field of the
                # representatives (see the module docstring); a leaf left
                # here runs, so processing it elects it
                w = winners[shown]
                sub = process(*next(ab for ab in alive if codes[ab[0]] == w))
                if sub >= 0:
                    return sub
                gone |= 1 << w  # that branch emptied; decide again
                continue
            # Q node: compare the first two alive blocks in majority order,
            # then walk from the designated end.
            head = codes[alive[0][0]]
            if len(alive) > 1 and winners[1 << head | 1 << codes[alive[1][0]]] != head:
                alive.reverse()
            for a, b in alive:
                if b - a > 1:
                    sub = process(a, b)
                    if sub >= 0:
                        return sub
                    gone |= 1 << codes[a]
                    break  # the string changed; compare afresh
                if ask(codes[a]):
                    return codes[a]
                gone |= 1 << codes[a]
            else:
                return -1  # walked the whole string without a runner

    winner = process(0, game.profile.m)
    played = game._plays[runners] = (winner, asked)
    return played


def lambda_obviously_dominant_run(game: GameSpec, a: str) -> tuple[bool, dict | None]:
    """Is Run obviously dominant for ``a`` in the staged game?

    Quantifies over every opposing action profile under which ``a`` is
    actually asked: the worst Run outcome must be at least the best Drop
    outcome.  Vacuously true if ``a`` is never asked.
    """
    me, others = _others(game, a)
    bit = 1 << me
    bits = [1 << game._code[c] for c in others]
    pay = game._payoff[me]

    def outcomes():
        for choice in product((RUN, DROP), repeat=len(others)):
            running = sum(b for b, act in zip(bits, choice) if act == RUN)
            ran, asked = _play(game, running | bit)
            if asked & bit:
                dropped, _ = _play(game, running)
                yield pay[ran], pay[dropped], (choice, ran), (choice, dropped)

    found = _worst_run_best_drop(outcomes())
    if found is None:
        return True, None  # never asked, or Run is obviously dominant
    (u_run, (run_choice, run_winner)), (u_drop, (drop_choice, drop_winner)) = found
    return False, {
        "candidate": a,
        "worst_run_utility": u_run,
        "worst_run": {"opponents": dict(zip(others, run_choice)), "winner": _name(game, run_winner)},
        "best_drop_utility": u_drop,
        "best_drop": {"opponents": dict(zip(others, drop_choice)), "winner": _name(game, drop_winner)},
    }
