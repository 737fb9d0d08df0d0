"""PQ-trees over the *strong* clone sets of a profile.

A clone set is strong when it properly overlaps no other clone set, so the
strong sets nest into a tree: leaves are candidates, the root is the whole
candidate set.  An internal node is

* type Q (a string of sausages) when the union of every two adjacent child
  blocks is again a clone set — every ballot then runs through the child
  blocks left-to-right or right-to-left, and the node's clone sets are
  exactly the unions of consecutive runs of children;
* type P (a fat sausage) otherwise — only the node itself is a clone set,
  and the children carry no linear arrangement at all.

Two-child internal nodes satisfy the Q test vacuously and are stored as Q,
though they are rendered with the unordered glyph since a two-block string
has no orientation to speak of.

Stored child order is the order voter 1 ranks the blocks; for Q nodes the
``orientation`` field records whether a strict majority of voters agrees
with that order (``forward``) or with its mirror (``reverse``), with ``tie``
set when the counts are even.  :func:`ordered_child` reads children in
majority order, falling back to stored order on a tie.  For P nodes the
stored order is purely cosmetic, so children are arranged by a display
convention: ascending number of last-place finishes for the block, ties by
block name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .clones import CloneDecomposition, canonical_decomposition, clone_structure
from .profiles import Profile, block_name, restrict, summarize

__all__ = [
    "PQNode",
    "build_pqtree",
    "decomp",
    "ordered_child",
    "decomposition_degree",
    "clone_sets_from_tree",
    "serialize_tree",
    "tree_to_dict",
    "internal_nodes",
]


@dataclass(frozen=True)
class PQNode:
    """One node of the tree; ``members`` is always a clone set of the profile."""

    members: frozenset[str]
    kind: str  # "leaf" | "P" | "Q"
    children: tuple["PQNode", ...] = ()
    orientation: str | None = None  # Q only: "forward" | "reverse" vs stored order
    tie: bool = False  # Q only: forward and reverse voter counts equal

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"

    @property
    def name(self) -> str:
        return block_name(self.members)


def _strong_sets(profile: Profile) -> list[frozenset[str]]:
    structure = clone_structure(profile)
    strong = []
    for k in structure:
        if all(
            not (k & other) or k <= other or other <= k
            for other in structure
        ):
            strong.append(k)
    return strong


def _block_sequence(ranking, blocks: list[frozenset[str]]) -> list[int]:
    """Indices of ``blocks`` in first-appearance order on this ballot."""
    owner = {c: i for i, b in enumerate(blocks) for c in b}
    seq: list[int] = []
    for c in ranking:
        i = owner[c]
        if not seq or seq[-1] != i:
            seq.append(i)
    return seq


def _child_summary(profile: Profile, children: Iterable[PQNode]) -> Profile:
    """The profile restricted to a node, each child block collapsed to its name."""
    blocks = [child.members for child in children]
    return summarize(restrict(profile, frozenset().union(*blocks)), blocks)


@lru_cache(maxsize=None)
def build_pqtree(profile: Profile) -> PQNode:
    """Build the tree of strong clone sets with P/Q labels and orientations."""
    strong = sorted(_strong_sets(profile), key=len)
    structure = clone_structure(profile)
    first_ranking = profile.groups[0][0]
    first_pos = {c: i for i, c in enumerate(first_ranking)}

    def build(members: frozenset[str]) -> PQNode:
        if len(members) == 1:
            return PQNode(members=members, kind="leaf")
        # children: maximal strong proper subsets, in voter 1's block order
        inside = [s for s in strong if s < members]
        child_sets = [s for s in inside if not any(s < t for t in inside)]
        child_sets.sort(key=lambda s: min(first_pos[c] for c in s))

        adjacent_unions_ok = all(
            (child_sets[i] | child_sets[i + 1]) in structure
            for i in range(len(child_sets) - 1)
        )
        if adjacent_unions_ok:
            forward = backward = 0
            stored = list(range(len(child_sets)))
            for ranking, mult in profile.groups:
                seq = _block_sequence([c for c in ranking if c in members], child_sets)
                if seq == stored:
                    forward += mult
                elif seq == stored[::-1]:
                    backward += mult
                else:  # cannot happen once the adjacency test passed
                    raise AssertionError(f"ballot breaks the block string at {members}")
            return PQNode(
                members=members,
                kind="Q",
                children=tuple(build(s) for s in child_sets),
                orientation="forward" if forward >= backward else "reverse",
                tie=forward == backward,
            )
        children = [build(s) for s in child_sets]
        last_counts = {child.name: 0 for child in children}
        for ranking, mult in _child_summary(profile, children).groups:
            last_counts[ranking[-1]] += mult  # voters ranking that block last here
        children.sort(key=lambda child: (last_counts[child.name], child.name))
        return PQNode(members=members, kind="P", children=tuple(children))

    return build(frozenset(profile.candidates))


def decomp(node: PQNode) -> CloneDecomposition:
    """The node's members partitioned into its children's member sets."""
    if node.is_leaf:
        return (node.members,)
    return canonical_decomposition(child.members for child in node.children)


def _reading_order(node: PQNode) -> tuple[PQNode, ...]:
    """The node's children in majority reading order: stored order unless a
    strict majority reads the string back-to-front."""
    if node.orientation == "reverse" and not node.tie:
        return node.children[::-1]
    return node.children


def ordered_child(node: PQNode, i: int) -> PQNode:
    """The i-th child (1-based) of a Q node in majority reading order."""
    if node.kind != "Q":
        raise ValueError(f"ordered_child applies to Q nodes, not {node.kind!r}")
    k = len(node.children)
    if not 1 <= i <= k:
        raise IndexError(f"child index {i} out of range 1..{k}")
    return _reading_order(node)[i - 1]


def internal_nodes(node: PQNode) -> list[PQNode]:
    """All non-leaf nodes, depth-first from the root."""
    if node.is_leaf:
        return []
    out = [node]
    for child in node.children:
        out.extend(internal_nodes(child))
    return out


def decomposition_degree(node: PQNode) -> int:
    """Largest child count over P nodes; 2 when the tree has no P node."""
    fanouts = [len(b.children) for b in internal_nodes(node) if b.kind == "P"]
    return max(fanouts) if fanouts else 2


def clone_sets_from_tree(node: PQNode) -> frozenset[frozenset[str]]:
    """Reconstruct the full clone structure recorded by the tree.

    Every node contributes its member set; a Q node additionally contributes
    the union of each consecutive run of two or more (but not all) children.
    """
    out: set[frozenset[str]] = set()

    def walk(b: PQNode) -> None:
        out.add(b.members)
        if b.kind == "Q":
            k = len(b.children)
            for i in range(k):
                acc = set(b.children[i].members)
                for j in range(i + 1, k):
                    acc |= b.children[j].members
                    if j - i + 1 < k:
                        out.add(frozenset(acc))
        for child in b.children:
            walk(child)

    walk(node)
    return frozenset(out)


def serialize_tree(node: PQNode) -> str:
    """Render the tree as an expression, e.g. ``(a⊙b)⊕c⊕d``.

    Children joined with ⊙ are unordered (P nodes and two-child nodes);
    children joined with ⊕ form a string read in stored order.  Only the
    root goes unparenthesised.
    """

    def render(b: PQNode, root: bool) -> str:
        if b.is_leaf:
            return next(iter(b.members))
        glyph = "⊕" if b.kind == "Q" and len(b.children) >= 3 else "⊙"
        body = glyph.join(render(c, False) for c in b.children)
        return body if root else f"({body})"

    return render(node, True)


def tree_to_dict(node: PQNode) -> dict:
    """JSON-ready nested representation of the tree."""
    return {
        "members": sorted(node.members),
        "kind": node.kind,
        "orientation": node.orientation,
        "tie": node.tie,
        "children": [tree_to_dict(c) for c in node.children],
    }
