"""PQ-trees over the *strong* clone sets of a profile.

A clone set is strong when it properly overlaps no other clone set, so the
strong sets nest into a tree: leaves are candidates, the root is the whole
candidate set.  Every clone set is an interval of voter 1's ranking, so a
node is an interval ``[i, j)`` of it, read off the table of clone intervals
in :mod:`clonelab.clones`; ``c`` is a *cut* of the node when ``[i, c)`` and
``[c, j)`` are both clone sets.  A cut never falls inside a child, whose
strong set it would properly overlap.  An internal node is

* type Q (a string of sausages) when it has a cut; its children are the
  pieces between consecutive cuts, every ballot runs through them
  left-to-right or right-to-left, and the node's clone sets are exactly the
  unions of consecutive runs of children;
* type P (a fat sausage) otherwise — no union of some but not all children
  is a clone set and every proper clone subset lies inside one child, so
  the children are the longest proper clone interval from ``i``, then the
  longest from where it ends, and so on; they carry no linear arrangement.

Two-child internal nodes have a cut and are stored as Q, though they are
rendered with the unordered glyph since a two-block string has no
orientation to speak of.

Stored child order is the order voter 1 ranks the blocks; for Q nodes the
``orientation`` field records whether a strict majority of voters agrees
with that order (``forward``, a ballot ranking the first child's block above
the second's) or with its mirror (``reverse``), with ``tie`` set when the
counts are even.  :func:`ordered_child` reads children in majority order,
falling back to stored order on a tie.  For P nodes the stored order is
purely cosmetic, so children are arranged by a display convention:
ascending number of last-place finishes for the block, ties by block name.

The split of a node into its kind and its children in reading order
(:func:`_split`) and the P order (:func:`_stored_order`) work on intervals
of the table alone, so the clone-collapsing transform
(:mod:`clonelab.transform`) and the staged candidacy game
(:mod:`clonelab.games`) split the nodes they visit by the same rules
without building the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .clones import _CACHE_SIZE, CloneDecomposition, _clone_intervals, canonical_decomposition
from .profiles import Profile, block_name

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


def _split(table, codes, core, i: int, j: int) -> tuple[str, list[tuple[int, int]]]:
    """The kind of the node ``[i, j)`` of a field's ``table`` and ``codes``
    (:func:`clonelab.clones._clone_intervals`) and its children ``[a, b)``:
    a P node's in voter 1's order, a Q node's in majority reading order.

    The node is Q when it has a cut, its children the pieces between the
    cuts, and P otherwise, its children the longest proper clone interval
    from ``i``, then the longest from where that one ends, and so on.  A Q
    node reads back-to-front when a strict majority ranks its second block
    above its first, by the margin rows of ``core``, the profile's
    :class:`clonelab.profiles._Core`, read only here; a field keeps its margins."""
    row = table[i]
    cuts = [c for c in range(i + 1, j) if row[c] and table[c][j]]
    if cuts:
        kids = list(zip([i, *cuts], [*cuts, j]))
        if core.rows[codes[i]][codes[cuts[0]]] < 0:
            kids.reverse()
        return "Q", kids
    bounds = [i]
    end = j - 1  # the first child must be a proper subset of the node; later ones are anyway
    while bounds[-1] < j:
        row = table[bounds[-1]]
        while not row[end]:
            end -= 1
        bounds.append(end)
        end = j
    return "P", list(zip(bounds, bounds[1:]))


def _stored_order(positions, weights, first, kids: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """A P node's children ``[a, b)``, given in voter 1's order as
    :func:`_split` returns them, in stored order: ascending number of voters
    ranking the child's block last among the node's members, ties by block
    name.  ``positions`` are the core's, cut to the field, ``weights`` the
    core's, and ``first`` is voter 1's ranking of the field."""
    i, j = kids[0][0], kids[-1][1]
    owner = []  # voter 1's place -> the child there, over the node
    for k, (a, b) in enumerate(kids):
        owner += [k] * (b - a)
    last = [0] * len(kids)  # voters ranking each child last here
    for pos, weight in zip(positions, weights):
        span = pos[i:j]
        last[owner[span.index(max(span))]] += weight
    return sorted(kids, key=lambda ab: (last[owner[ab[0] - i]], block_name(first[ab[0] : ab[1]])))


@lru_cache(maxsize=_CACHE_SIZE)
def build_pqtree(profile: Profile) -> PQNode:
    """Build the tree of strong clone sets with P/Q labels and orientations."""
    codes, table, positions = _clone_intervals(profile)
    first = profile.groups[0][0]  # first[i] is coded codes[i]
    core = profile._core

    def build(i: int, j: int) -> PQNode:
        members = frozenset(first[i:j])
        if j - i == 1:
            return PQNode(members=members, kind="leaf")
        kind, kids = _split(table, codes, core, i, j)
        if kind == "P":
            kids = _stored_order(positions, core.weights, first, kids)
            return PQNode(members=members, kind="P", children=tuple(build(a, b) for a, b in kids))
        stored = sorted(kids)  # voter 1's order
        return PQNode(
            members=members,
            kind="Q",
            children=tuple(build(a, b) for a, b in stored),
            orientation="forward" if kids == stored else "reverse",
            tie=core.rows[codes[i]][codes[stored[1][0]]] == 0,  # first block against second
        )

    return build(0, len(first))


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
