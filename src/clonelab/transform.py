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

Each visited internal node costs exactly one call of f (of its masked entry,
for a registered rule), on as many candidates as the node has children (two
for Q nodes).

Every child of a node is a clone set of the profile, so it is consecutive
on every ballot, and the profile cut down to one member of each block shown
is the block summary with those members renamed to their blocks: the same
ballots, the same voters, the same ties for voter i.  So a registered rule
(one whose callable carries a masked entry, see :mod:`clonelab.scf`) is
asked about the summary as the mask of the blocks' representatives, on the
profile's own core, and no summary profile is built.  Any other callable is
shown the summary profile with its blocks named, as :class:`_Elector`
describes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .profiles import Profile, _codes, _kept, block_name, restrict, summarize
from .pqtree import PQNode, _child_summary, _reading_order, build_pqtree
from .scf import WinnerSet, _bits
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
    by the transform with a ``^cc`` suffix (``stv^cc``, ``rp_i:1^cc``).
    """
    if callable(rule):
        return rule
    name = rule.strip()
    if name.endswith("^cc"):
        inner = resolve_rule(name[: -len("^cc")])
        def transformed(profile: Profile, _inner: Rule = inner) -> WinnerSet:
            return cc_transform(_inner, profile)
        transformed.__name__ = f"{name.replace(':', '_').replace('^', '_')}"
        return transformed
    return _resolve_id("scf", rule)


def rule_label(rule: str | Rule) -> str:
    """Printable name for a rule id or callable."""
    return rule if isinstance(rule, str) else getattr(rule, "__name__", repr(rule))


class _Elector:
    """``rule`` on ``profile`` as one function from a mask of candidate codes
    to the mask of the winners, for the callers that elect many sets of one
    profile.

    A registered rule runs its masked entry, bound to the profile at the
    first call.  Any other callable goes through an adapter that derives the
    profile it is shown and calls the rule: the profile restricted to the
    mask, its candidates named as in the profile (:func:`_kept`), or, given
    ``blocks`` (each representative's code → its block), the block summary,
    its candidates named by block (:func:`_child_summary`).  ``calls`` counts
    the calls made of the entry or of the rule.
    """

    def __init__(self, rule: str | Rule, profile: Profile) -> None:
        self.rule = resolve_rule(rule)
        self.profile = profile
        self.calls = 0
        self._entry = getattr(self.rule, "_on", None)
        self._bound: Callable[[int], int] | None = None

    def __call__(self, mask: int, blocks: dict[int, PQNode] | None = None) -> int:
        self.calls += 1
        if self._entry is not None:
            if self._bound is None:
                self._bound = self._entry(self.profile)
            return self._bound(mask)
        if blocks is None:
            self.profile._core.rows  # counted once, so that every field's are cut from them
            shown = _kept(self.profile, _bits(mask))
            code_of = _codes(self.profile.candidates)
        else:
            shown = _child_summary(self.profile, blocks.values())
            code_of = {block.name: c for c, block in blocks.items()}
        return sum(1 << code_of[w] for w in self.rule(shown))


def composition_product(rule: str | Rule, profile: Profile, decomposition) -> WinnerSet:
    """Two-level election: f across collapsed blocks, then f inside winners."""
    f = resolve_rule(rule)
    blocks = [frozenset(b) for b in decomposition]
    packed = summarize(profile, blocks)
    by_name = {block_name(b): b for b in blocks}
    winners: set[str] = set()
    for meta in f(packed):
        winners |= f(restrict(profile, by_name[meta]))
    return frozenset(winners)


def cc_transform(
    rule: str | Rule, profile: Profile, trace: list | None = None
) -> WinnerSet:
    """Winners of the clone-collapsing transform of ``rule`` on ``profile``.

    Walks the PQ-tree breadth-first from the root, keeping a frontier of
    candidate blocks still in contention; see the module docstring for the
    P/Q branching.  ``trace``, when given a list, receives one record per
    visited internal node: the node's members, its kind, the blocks of the
    summary the rule was shown in voter 1's order (for a Q node, just the
    designated first two blocks), the blocks it selected, and the number of
    calls of the rule, or of its masked entry, made there.
    """
    elect = _Elector(rule, profile)
    code_of = _codes(profile.candidates)
    first = profile._core.ballots[0]  # voter 1's ranking, as codes
    winners: set[str] = set()
    queue: deque = deque([build_pqtree(profile)])
    while queue:
        node = queue.popleft()
        if node.is_leaf:
            winners |= node.members
            continue
        reading = _reading_order(node)
        shown = node.children if node.kind == "P" else reading[:2]
        blocks = {code_of[min(child.members)]: child for child in shown}  # representative -> block
        before = elect.calls
        won = elect(sum(1 << c for c in blocks), blocks)
        chosen = frozenset(blocks[c].name for c in _bits(won))
        if node.kind == "P":
            queue.extend(child for child in node.children if child.name in chosen)
        elif chosen == frozenset({reading[0].name}):
            queue.append(reading[0])
        elif chosen == frozenset({reading[1].name}):
            queue.append(reading[-1])
        else:
            queue.extend(node.children)
        if trace is not None:
            trace.append(
                {
                    "node": sorted(node.members),
                    "kind": node.kind,
                    "blocks": [blocks[c].name for c in first if c in blocks],
                    "selected": sorted(chosen),
                    "rule_calls": elect.calls - before,
                }
            )
    return frozenset(winners)
