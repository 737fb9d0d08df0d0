"""Composition products and the clone-collapsing transform of a voting rule.

``composition_product(f, p, blocks)`` runs f twice over a two-level election:
once on the profile with each block collapsed to a meta-candidate, then once
inside every winning block, unioning the inner winners.  A rule is
composition-consistent when this never changes its outcome, whatever the
block structure; the transform below forces that property onto any rule by
walking the profile's PQ-tree:

* at a P node, f picks among the child blocks (collapsed to meta-candidates
  on the profile restricted to the node) and every winning child is expanded;
* at a Q node, f only ever sees the *first two* blocks in majority reading
  order — picking the first keeps it, picking the second jumps to the far
  end of the string, and a tie keeps every child in play.

Each visited internal node asks :class:`_Elector` once for f's choice, on as
many candidates as the node has children (two for Q nodes).

The walk never builds the tree.  Every node is an interval ``[i, j)`` of
voter 1's ranking of the field walked (the profile, or any subset for the
masked entry of a ``^cc`` id), so the walk reads that field's table of clone
intervals (:func:`clonelab.clones._clone_intervals`) and splits only the
nodes it visits, by the rule that builds the tree
(:func:`clonelab.pqtree._split`), which reads a Q node back-to-front when a
strict majority ranks its second block above its first; a P node's children
are put in the tree's stored order only when the rule elects more than one
of them, so that the walk and its trace visit them as the tree lists them.

Every child of a node is a clone set of the field, so it is consecutive on
every ballot, and the field cut down to one member of each block shown
(its representative: the one voter 1 ranks first) is the block summary with
those members renamed to their blocks: the same ballots, the same voters,
the same ties for voter i.  So a registered rule (one whose callable carries
a masked entry, see :mod:`clonelab.scf`) is asked about the summary as the
mask of the blocks' representatives, on the profile's own core, and neither
a summary profile nor a block name is built.  Any other callable is shown
the summary profile with its blocks named, as :class:`_Elector` describes.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Iterable

from .clones import _clone_intervals
from .profiles import Profile, _derive, block_name, restrict, summarize
from .pqtree import _split, _stored_order
from .scf import WinnerSet, _bits, _masked, _names
from .spf import _resolve_id, _rule_ids

__all__ = [
    "RULE_IDS",
    "resolve_rule",
    "rule_label",
    "composition_product",
    "cc_transform",
]

Rule = Callable[[Profile], WinnerSet]

RULE_IDS = _rule_ids("scf")
"""Accepted rule identifiers; any id also takes a ``^cc`` suffix."""


def resolve_rule(rule: str | Rule) -> Rule:
    """Turn a rule id into a callable; callables pass through unchanged.

    Ids are the winner-rule ids of the registry in :mod:`clonelab.spf`,
    optionally voter-indexed (``rp_i:2``, ``stv_i:1``) and optionally wrapped
    by the transform with a ``^cc`` suffix (``stv^cc``, ``rp_i:1^cc``) as a masked rule.
    """
    if callable(rule):
        return rule
    name = rule.strip()
    if name.endswith("^cc"):
        inner = resolve_rule(name[: -len("^cc")])
        def transformed(profile: Profile) -> Callable[[int], int]:
            return partial(_cc_walk, _Elector(inner, profile))
        transformed.__name__ = name.replace(":", "_").replace("^", "_")
        return _masked(transformed)
    return _resolve_id("scf", rule)


def rule_label(rule: str | Rule) -> str:
    """Printable name for a rule id or callable."""
    return rule if isinstance(rule, str) else getattr(rule, "__name__", repr(rule))


class _Elector:
    """``rule`` on ``profile`` as one function from a mask of candidate codes
    to the mask of the winners (for a ranking rule, its rankings as code
    orders): how games, the transform and the axiom checks elect the rule on
    subsets of one profile.

    A registered rule, ``^cc`` ids included, runs its masked entry, bound to
    the profile at the first call, and reads only the mask.  Any other
    callable is shown the profile restricted to the mask or, given ``blocks``
    (each representative's code → its block's members), the block summary,
    as :func:`clonelab.profiles.restrict` and :func:`clonelab.profiles.summarize`
    make them, by one derivation each (:func:`clonelab.profiles._derive`), or
    the profile itself where that is what it would be shown; its answer is
    read back in codes.  Answers are kept by mask, so each mask is elected
    once per elector; a plain callable's block summary, which names its
    blocks, is elected afresh and never kept.  ``calls`` counts the elections.
    """

    def __init__(self, rule: str | Rule, profile: Profile) -> None:
        self.rule = resolve_rule(rule)
        self.profile = profile
        self.calls = 0
        self._entry = getattr(self.rule, "_on", None)
        self._bound = None if self._entry else partial(_adapted, self.rule, profile)
        self._answers: dict = {}  # mask -> answer

    def __call__(self, mask: int, blocks: dict[int, Iterable[str]] | None = None):
        if blocks is not None and self._entry is None:  # a plain block summary: never kept
            self.calls += 1
            return self._bound(mask, blocks)
        if mask not in self._answers:
            self.calls += 1
            self._bound = self._bound or self._entry(self.profile)
            self._answers[mask] = self._bound(mask)
        return self._answers[mask]


def _adapted(rule: Rule, profile: Profile, mask: int, blocks: dict | None = None):
    """A plain callable's answer in codes, as :class:`_Elector` shows it the field."""
    if blocks is None:
        profile._core.rows  # counted once, so that every field's are cut from them
        keep = _bits(mask)
        names = tuple(map(profile.candidates.__getitem__, keep))
    else:  # the representatives in voter 1's order
        keep = [c for c in profile._core.ballots[0] if c in blocks]
        names = tuple(block_name(blocks[c]) for c in keep)
    shown = profile if names == profile.candidates else _derive(profile, keep, names)
    code_of = dict(zip(names, keep)).__getitem__
    answer = rule(shown)
    if isinstance(next(iter(answer), ""), str):  # winners
        return sum(1 << code_of(w) for w in answer)
    return frozenset(tuple(map(code_of, ranking)) for ranking in answer)


def composition_product(rule: str | Rule, profile: Profile, decomposition) -> WinnerSet:
    """Two-level election: f across collapsed blocks, then f inside winners."""
    f = resolve_rule(rule)
    blocks = [frozenset(b) for b in decomposition]
    by_name = {block_name(b): b for b in blocks}
    elected = f(summarize(profile, blocks))
    return frozenset().union(*(f(restrict(profile, by_name[meta])) for meta in elected))


def cc_transform(
    rule: str | Rule, profile: Profile, trace: list | None = None
) -> WinnerSet:
    """Winners of the clone-collapsing transform of ``rule`` on ``profile``,
    the walk of a ``^cc`` id's masked entry on the full mask.

    Walks the PQ-tree's nodes, as intervals of voter 1's ranking,
    breadth-first from the root, keeping a frontier of candidate blocks
    still in contention; see the module docstring for the P/Q branching.
    ``trace``, when given a list, receives one record per visited internal
    node: the node's members, its kind, the blocks of the summary the rule
    was shown in voter 1's order (for a Q node, just the designated first
    two blocks), the blocks it selected, and the number of calls of the
    rule, or of its masked entry, made there.
    """
    return _names(profile, _cc_walk(_Elector(rule, profile), trace=trace))


def _cc_walk(elect: _Elector, mask: int | None = None, trace: list | None = None) -> int:
    """The winners' mask of :func:`cc_transform` on the field ``mask`` (all by default)."""
    profile = elect.profile
    core = profile._core
    codes, table, positions = _clone_intervals(profile, mask)
    first = profile.groups[0][0] if mask is None else [profile.candidates[c] for c in codes]
    winners = 0
    queue: deque[tuple[int, int]] = deque([(0, len(first))])
    while queue:
        i, j = queue.popleft()
        if j - i == 1:
            winners |= 1 << codes[i]
            continue
        kind, kids = _split(table, codes, core, i, j)  # a Q node's in majority reading order
        shown = kids[:2] if kind == "Q" else kids
        blocks = {codes[a]: first[a:b] for a, b in shown}
        before = elect.calls
        won = elect(sum(1 << codes[a] for a, _ in shown), blocks)
        if kind == "P":
            if won & (won - 1):  # several children elected: visit them as the tree stores them
                kids = _stored_order(positions, core.weights, first, kids)
            queue.extend(ab for ab in kids if won >> codes[ab[0]] & 1)
        elif won == 1 << codes[kids[0][0]]:
            queue.append(kids[0])
        elif won == 1 << codes[kids[1][0]]:
            queue.append(kids[-1])
        else:
            queue.extend(sorted(kids))
        if trace is not None:
            trace.append(
                {
                    "node": sorted(first[i:j]),
                    "kind": kind,
                    "blocks": [block_name(first[a:b]) for a, b in sorted(shown)],
                    "selected": sorted(block_name(blocks[c]) for c in _bits(won)),
                    "rule_calls": elect.calls - before,
                }
            )
    return winners
