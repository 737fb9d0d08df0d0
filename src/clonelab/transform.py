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

Each visited internal node costs exactly one call of f, on a profile with as
many candidates as the node has children (two for Q nodes).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .profiles import Profile, block_name, restrict, summarize
from .pqtree import _child_summary, _reading_order, build_pqtree
from .scf import WinnerSet
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
    visited internal node: the node's members, its kind, the block summary
    the rule was shown (for a Q node, just the designated first two blocks),
    the meta-candidates it selected, and the (always 1) number of rule
    invocations there.
    """
    f = resolve_rule(rule)
    winners: set[str] = set()
    queue: deque = deque([build_pqtree(profile)])
    while queue:
        node = queue.popleft()
        if node.is_leaf:
            winners |= node.members
            continue
        if node.kind == "P":
            seen = _child_summary(profile, node.children)
            chosen = f(seen)
            for child in node.children:
                if child.name in chosen:
                    queue.append(child)
        else:
            reading = _reading_order(node)
            seen = _child_summary(profile, reading[:2])
            chosen = f(seen)
            if chosen == frozenset({reading[0].name}):
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
                    "blocks": list(seen.candidates),
                    "selected": sorted(chosen),
                    "rule_calls": 1,
                }
            )
    return frozenset(winners)
