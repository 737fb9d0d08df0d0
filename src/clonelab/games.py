"""Strategic candidacy games over a fixed voter profile.

Candidates choose to Run or Drop; voters are honest; a candidate's utility
is ``m − d(a, winner)`` where d is the clone distance on the *original*
profile (so a wants the winner as close to her clone-wise as possible, and
winning herself is worth m).  An empty election is worth 0 to everyone.

Two game forms share these utilities:

* the one-shot form: everyone decides simultaneously, and the rule runs on
  the profile restricted to the runners;
* the staged form: the rule's clone-collapsing transform walks the PQ-tree
  and a candidate is asked only when the walk reaches her parent node.  At a
  P node all leaf children are asked at once and the droppers are removed
  from the block summary before the rule picks a branch; at a Q node the
  rule compares the first two blocks in majority order, which designates an
  end of the string, and the walk proceeds from that end, asking each leaf
  (a Run answer wins on the spot) and descending into each internal block.
  A block whose members have all dropped is removed and its parent decides
  again among the remaining blocks.

Rules must be decisive (a single winner on every non-empty restriction),
which is enforced when the game is built, and neutral in listing order (the
winners may not depend on the order of ``profile.candidates``).  One table on
the game keeps every winner, keyed by the names the rule was shown, so a game
costs 2^m − 1 rule calls to build and the one-shot form makes no further
call.  A staged decision among single candidates is a field and reads its
winner; the staged form adds one call per distinct set of shown blocks that
holds a merged block.  Plays, the PQ-tree and clone distances are kept too.

Cost model.  Building a game builds the profile's core and margin rows once.
Each field, and each block summary a staged decision shows the rule, is cut
from that core with no name checks (:func:`clonelab.profiles._derive`): the
profile's k distinct code rankings are cut down and merged, which gives the
field its core and names its groups at once, and its margin rows are the
submatrix of the profile's, cut then.  The rules that read margins are the
pairwise ones, and a ``^cc`` rule wherever a field's tree has a Q node to
orient; a plain ``stv_i`` game reads none, and the one count up front and
the submatrices are all it wastes.  A field's PQ-tree, which a clone-aware
rule builds, is still computed from the field's own rankings: removing
candidates can create clone sets.  The clone distances come from one walk of the profile's
tree, O(m²).  Verdicts read the kept winners and plays directly; only
:func:`utility` and :func:`lambda_play` validate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Callable, Iterable, Mapping

from .profiles import Profile, _kept
from .pqtree import PQNode, _child_summary, _clone_distances, _reading_order, build_pqtree
from .transform import resolve_rule, rule_label

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


def _single_winner(f: Callable, profile: Profile, where: Callable[[], str]) -> str:
    winners = f(profile)
    if len(winners) != 1:
        raise IndecisiveRuleError(
            f"rule ties on {where()}: {sorted(winners)}; candidacy games need a decisive rule"
        )
    (w,) = winners
    return w


def _record():
    """A private per-game dict, left out of ``__init__``, repr, equality and
    hashing, so it goes away with the game."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PlayResult:
    """Outcome of one staged play: the winner (None if everyone standing
    dropped) and exactly the candidates who were asked."""

    winner: str | None
    asked: frozenset[str]


@dataclass(frozen=True)
class GameSpec:
    """A candidacy game: profile, decisive rule, and form ("gamma" = one-shot,
    "lambda" = staged on the PQ-tree)."""

    profile: Profile
    rule: str | Callable
    form: str = "gamma"
    _winners: dict[frozenset[str], str] = _record()  # names shown to the rule -> winner
    _distance: dict[tuple[str, str], int] = _record()  # (a, b) -> clone distance
    _tree: PQNode = field(init=False, repr=False, compare=False)  # the profile's PQ-tree
    _plays: dict[frozenset[str], PlayResult] = _record()  # runners -> staged play

    def __post_init__(self) -> None:
        if self.form not in ("gamma", "lambda"):
            raise ValueError(f"unknown game form {self.form!r}")
        f = resolve_rule(self.rule)
        profile = self.profile
        profile._core.rows  # counted before the fields, so theirs are cut from these
        m = profile.m
        for size in range(1, m + 1):
            for codes in combinations(range(m), size):  # the fields, by candidate code
                runners = _kept(profile, codes)
                self._winners[frozenset(runners.candidates)] = _single_winner(
                    f, runners, lambda: f"candidates {list(runners.candidates)}"
                )
        object.__setattr__(self, "_tree", build_pqtree(profile))
        self._distance.update(_clone_distances(self._tree))

    @property
    def rule_name(self) -> str:
        return rule_label(self.rule)


def utility(game: GameSpec, a: str, field: Iterable[str]) -> int:
    """Candidate a's utility when exactly ``field`` stands for election."""
    standing = frozenset(field)
    if a not in game.profile.candidates:
        raise ValueError(f"unknown candidate {a!r}")
    unknown = standing - set(game.profile.candidates)
    if unknown:
        raise ValueError(f"unknown candidate(s) {sorted(unknown)} in the field")
    return _payoff(game, a, game._winners.get(standing))


def _payoff(game: GameSpec, a: str, winner: str | None) -> int:
    """Candidate a's utility when ``winner`` is elected (None: nobody)."""
    if winner is None:
        return 0
    return game.profile.m - game._distance[a, winner]


def _opponent_fields(game: GameSpec, a: str):
    """All sets of other candidates, smallest first, then lexicographic."""
    if a not in game.profile.candidates:
        raise ValueError(f"unknown candidate {a!r}")
    others = sorted(set(game.profile.candidates) - {a})
    return chain.from_iterable(combinations(others, k) for k in range(len(others) + 1))


def _run_and_drop(game: GameSpec, a: str, others: tuple[str, ...]) -> tuple[int, int]:
    """a's utilities when exactly ``others`` stand besides a: running, dropping."""
    standing = frozenset(others)
    return (
        _payoff(game, a, game._winners[standing | {a}]),
        _payoff(game, a, game._winners.get(standing)),  # no winner when nobody stands
    )


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
    for field in _opponent_fields(game, a):
        u_run, u_drop = _run_and_drop(game, a, field)
        if u_run < u_drop:
            return False, {
                "candidate": a,
                "others_running": sorted(field),
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
    found = _worst_run_best_drop(
        (*_run_and_drop(game, a, field), field, field) for field in _opponent_fields(game, a)
    )
    if found is None:
        return True, None
    (u_run, run_others), (u_drop, drop_others) = found
    return False, {
        "candidate": a,
        "worst_run_utility": u_run,
        "worst_run_others": sorted(run_others),
        "best_drop_utility": u_drop,
        "best_drop_others": sorted(drop_others),
    }


# ---------------------------------------------------------------------------
# staged form


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
    return _play(game, frozenset(c for c, v in actions.items() if v == RUN))


def _play(game: GameSpec, runners: frozenset[str]) -> PlayResult:
    """The staged play in which exactly ``runners`` run, walked once per game."""
    played = game._plays.get(runners)  # a play depends only on who runs
    if played is not None:
        return played
    profile = game.profile
    f = resolve_rule(game.rule)
    asked: set[str] = set()

    def ask(leaf: PQNode) -> bool:
        """Ask a leaf's candidate; True when they run."""
        (c,) = leaf.members
        asked.add(c)
        return c in runners

    def decide(node: PQNode, shown: frozenset[str]) -> str:
        """The rule's pick among the named child blocks of ``node``.  Shown only
        leaves, that is the field of those candidates, elected at construction;
        a merged block's name is never a candidate's, so no other key collides."""
        winners = game._winners
        if shown not in winners:
            packed = _child_summary(profile, [ch for ch in node.children if ch.name in shown])
            winners[shown] = _single_winner(f, packed, lambda: f"blocks of {sorted(node.members)}")
        return winners[shown]

    def process(node: PQNode) -> str | None:
        if node.is_leaf:  # degenerate one-candidate game
            (c,) = node.members
            return c if ask(node) else None
        gone: set[str] = set()  # names of children with nobody left standing
        while True:
            alive = [ch for ch in _reading_order(node) if ch.name not in gone]
            if not alive:
                return None
            if node.kind == "P":
                for ch in alive:
                    if ch.is_leaf and not ask(ch):
                        gone.add(ch.name)
                if len(gone) == len(node.children):
                    return None
                block = decide(node, frozenset(ch.name for ch in node.children) - gone)
                chosen = next(ch for ch in node.children if ch.name == block)
                if chosen.is_leaf:
                    return next(iter(chosen.members))
                sub = process(chosen)
                if sub is not None:
                    return sub
                gone.add(chosen.name)  # that branch emptied; decide again
                continue
            # Q node: compare the first two alive blocks in majority order,
            # then walk from the designated end.
            if len(alive) == 1:
                walk = alive
            else:
                block = decide(node, frozenset((alive[0].name, alive[1].name)))
                walk = alive if block == alive[0].name else alive[::-1]
            restart = False
            for ch in walk:
                if ch.is_leaf:
                    if ask(ch):
                        return next(iter(ch.members))
                    gone.add(ch.name)
                else:
                    sub = process(ch)
                    if sub is not None:
                        return sub
                    gone.add(ch.name)
                    restart = True  # the string changed; compare afresh
                    break
            if restart:
                continue
            return None  # walked the whole string without a runner

    played = PlayResult(winner=process(game._tree), asked=frozenset(asked))
    game._plays[runners] = played
    return played


def lambda_obviously_dominant_run(game: GameSpec, a: str) -> tuple[bool, dict | None]:
    """Is Run obviously dominant for ``a`` in the staged game?

    Quantifies over every opposing action profile under which ``a`` is
    actually asked: the worst Run outcome must be at least the best Drop
    outcome.  Vacuously true if ``a`` is never asked.
    """
    if a not in game.profile.candidates:
        raise ValueError(f"unknown candidate {a!r}")
    others = sorted(set(game.profile.candidates) - {a})

    def outcomes():
        for choice in product((RUN, DROP), repeat=len(others)):
            running = frozenset(c for c, act in zip(others, choice) if act == RUN)
            ran = _play(game, running | {a})
            if a in ran.asked:
                dropped = _play(game, running)
                yield (
                    _payoff(game, a, ran.winner),
                    _payoff(game, a, dropped.winner),
                    (choice, ran.winner),
                    (choice, dropped.winner),
                )

    found = _worst_run_best_drop(outcomes())
    if found is None:
        return True, None  # never asked, or Run is obviously dominant
    (u_run, (run_choice, run_winner)), (u_drop, (drop_choice, drop_winner)) = found
    return False, {
        "candidate": a,
        "worst_run_utility": u_run,
        "worst_run": {"opponents": dict(zip(others, run_choice)), "winner": run_winner},
        "best_drop_utility": u_drop,
        "best_drop": {"opponents": dict(zip(others, drop_choice)), "winner": drop_winner},
    }
