import random
from itertools import combinations

import pytest

from clonelab.clones import _clone_intervals, clone_metric, clone_structure
from clonelab.profiles import Profile, parse_profile, restrict
from clonelab.pqtree import (
    _split,
    build_pqtree,
    clone_sets_from_tree,
    decomp,
    decomposition_degree,
    internal_nodes,
    ordered_child,
    serialize_tree,
    tree_to_dict,
)

from oracles import brute_clone_metric, brute_pqtree


def test_tree_of_clone_pair(fixtures):
    t = build_pqtree(fixtures["P2"])
    assert serialize_tree(t) == "b⊙(a1⊙a2)⊙c"
    # {a1,a2,b} and {a1,a2,c} are not clone sets, so the root cannot be a
    # string: it is a free (P) node of fanout 3
    assert t.kind == "P"
    assert decomposition_degree(t) == 3
    kids = [c.name for c in t.children]
    assert kids == ["b", "a1+a2", "c"]  # stored in antiplurality order


def test_tree_of_running_example(fixtures):
    t = build_pqtree(fixtures["P1"])
    assert serialize_tree(t) == "(b⊙c)⊙a⊙d"
    assert decomposition_degree(t) == 3


def test_two_voter_opposed_tree(fixtures):
    t = build_pqtree(fixtures["P4"])
    assert serialize_tree(t) == "(a⊙b)⊕c⊕d"
    assert t.kind == "Q"
    inner = next(c for c in t.children if not c.is_leaf)
    assert inner.kind == "Q"  # arity-2 nodes are Q by convention
    assert decomposition_degree(t) == 2


def test_single_string_tree():
    p = parse_profile("candidates: a,b,c,d,e\n1: a>b>c>d>e\n")
    t = build_pqtree(p)
    assert serialize_tree(t) == "a⊕b⊕c⊕d⊕e"
    assert [c.name for c in t.children] == list("abcde")
    assert decomposition_degree(t) == 2


def test_q_node_orientation():
    fwd = parse_profile("candidates: a,b,c\n2: a>b>c\n1: c>b>a\n")
    t = build_pqtree(fwd)
    assert t.kind == "Q"
    assert t.orientation == "forward"
    assert t.tie is False

    rev = parse_profile("candidates: a,b,c\n1: a>b>c\n2: c>b>a\n")
    t = build_pqtree(rev)
    assert t.orientation == "reverse"
    assert ordered_child(t, 1).name == "c"
    assert ordered_child(t, 3).name == "a"

    tied = parse_profile("candidates: a,b,c\n1: a>b>c\n1: c>b>a\n")
    t = build_pqtree(tied)
    assert t.tie is True
    assert ordered_child(t, 1).name == "a"  # ties keep voter 1's direction


def test_ordered_child_errors(fixtures):
    t = build_pqtree(fixtures["P1"])  # root is a P node
    with pytest.raises(ValueError):
        ordered_child(t, 1)
    q = build_pqtree(fixtures["P4"])  # Q root with three blocks
    with pytest.raises(IndexError):
        ordered_child(q, 0)
    with pytest.raises(IndexError):
        ordered_child(q, 4)


def test_leaf_tree():
    p = parse_profile("candidates: a\n1: a\n")
    t = build_pqtree(p)
    assert t.is_leaf
    assert serialize_tree(t) == "a"
    assert decomposition_degree(t) == 2
    assert internal_nodes(t) == []


def test_decomp_of_a_leaf_is_its_one_member(fixtures):
    leaves = [build_pqtree(parse_profile("candidates: a\n1: a\n"))]
    leaves += [c for c in build_pqtree(fixtures["P2"]).children if c.is_leaf]
    assert [decomp(leaf) for leaf in leaves] == [(frozenset({"a"}),), (frozenset({"b"}),), (frozenset({"c"}),)]


def test_decomp_lists_child_blocks(fixtures):
    # decomp() reports the child blocks canonically (sorted by name),
    # independent of the node's display order
    t = build_pqtree(fixtures["P2"])
    assert decomp(t) == (
        frozenset({"a1", "a2"}),
        frozenset({"b"}),
        frozenset({"c"}),
    )


def test_tree_encodes_exactly_the_clone_sets(corpus):
    """The tree is a lossless encoding: its nodes plus the contiguous runs
    of its Q-strings give back the whole clone structure."""
    for p in corpus:
        t = build_pqtree(p)
        assert clone_sets_from_tree(t) == frozenset(clone_structure(p))


def test_node_members_partition(corpus):
    for p in corpus[:150]:
        t = build_pqtree(p)
        assert t.members == frozenset(p.candidates)
        stack = [t]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert len(node.members) == 1
                continue
            assert len(node.children) >= 2
            union = set()
            for c in node.children:
                assert c.members <= node.members
                assert not (union & c.members)
                union |= c.members
                stack.append(c)
            assert union == node.members


def test_tree_to_dict(fixtures):
    d = tree_to_dict(build_pqtree(fixtures["P4"]))
    assert d["kind"] == "Q"
    assert d["tie"] is True  # one ballot each way
    assert [c["members"] for c in d["children"]] == [["a", "b"], ["c"], ["d"]]
    leaf = d["children"][0]["children"][0]
    assert leaf["kind"] == "leaf"
    assert leaf["members"] == ["a"]
    assert leaf["children"] == []


def test_degree_is_max_p_fanout():
    # a 4-leaf P root has degree 4
    p = parse_profile(
        "candidates: a,b,c,d\n1: a>b>c>d\n1: b>d>a>c\n1: c>a>d>b\n"
    )
    t = build_pqtree(p)
    assert t.kind == "P"
    assert len(t.children) == 4
    assert decomposition_degree(t) == 4


def _planted_tree(rng: random.Random, cands: list[str]):
    """A random nesting of P and Q blocks over ``cands``."""
    if len(cands) == 1:
        return cands[0]
    cuts = sorted(rng.sample(range(1, len(cands)), rng.randint(1, min(3, len(cands) - 1))))
    bounds = [0, *cuts, len(cands)]
    parts = [_planted_tree(rng, cands[a:b]) for a, b in zip(bounds, bounds[1:])]
    return rng.choice("PQ"), parts


def _planted_ballot(rng: random.Random, tree) -> list[str]:
    """A ballot that keeps every block contiguous: P blocks shuffled, Q
    blocks read forward or backward."""
    if isinstance(tree, str):
        return [tree]
    kind, parts = tree
    order = list(parts)
    if kind == "P":
        rng.shuffle(order)
    elif rng.random() < 0.5:
        order.reverse()
    return [c for part in order for c in _planted_ballot(rng, part)]


def _seeded_profiles() -> list[Profile]:
    """String, planted and two-ballot profiles with up to 12 candidates."""
    rng = random.Random(20010717)
    out = []
    for m in (3, 5, 7, 9, 10, 11, 12, 12):
        cands = [f"c{k}" for k in range(m)]
        ranking = rng.sample(cands, m)
        string = [(tuple(ranking), rng.randint(1, 3))]
        if rng.random() < 0.8:
            string.append((tuple(reversed(ranking)), rng.randint(1, 3)))
        tree = _planted_tree(rng, cands)
        planted = [(tuple(_planted_ballot(rng, tree)), rng.randint(1, 2)) for _ in range(4)]
        pair = [(tuple(rng.sample(cands, m)), rng.randint(1, 2)) for _ in range(2)]
        for groups in (string, planted, pair):
            out.append(Profile(candidates=tuple(cands), groups=tuple(groups)))
    return out


def test_tree_matches_definition_oracle(corpus, fixtures):
    """The tree equals the one read off the definition: strong sets nested by
    inclusion, Q exactly when every adjacent union is a clone set."""
    for p in [*corpus, *fixtures.values(), *_seeded_profiles()]:
        assert build_pqtree(p) == brute_pqtree(p), p


def test_clone_metric_matches_definition_oracle(corpus, fixtures):
    """Every pair's clone distance, read from the table of clone intervals,
    is the one read off the definition: the smallest clone set holding both."""
    for p in [*corpus, *fixtures.values(), *_seeded_profiles()]:
        for a in p.candidates:
            for b in p.candidates:
                assert clone_metric(p, a, b) == brute_clone_metric(p, a, b), (p, a, b)


def _shape(node, rename):
    """The tree with every member renamed; P children as a set, since their
    stored order breaks ties by name."""
    kids = [_shape(child, rename) for child in node.children]
    return (
        frozenset(map(rename.__getitem__, node.members)),
        node.kind,
        node.orientation,
        node.tie,
        tuple(kids) if node.kind == "Q" else frozenset(kids),
    )


def test_renamed_profiles_share_a_table_and_keep_their_names(corpus, fixtures):
    """The interval table is kept by places alone, so a profile renamed, and
    listed in another order, reads the same entry: its clone structure and
    tree are the original's under the renaming."""
    for p in [*corpus[:150], *fixtures.values()]:
        rename = {c: f"r{c}" for c in p.candidates}
        same = {rename[c]: rename[c] for c in p.candidates}
        q = Profile(
            candidates=tuple(map(rename.__getitem__, reversed(p.candidates))),
            groups=tuple((tuple(map(rename.__getitem__, r)), k) for r, k in p.groups),
        )
        want = frozenset(frozenset(map(rename.__getitem__, k)) for k in clone_structure(p))
        assert tuple(q._core.positions()) == tuple(p._core.positions())  # one table entry
        assert clone_structure(q) == want, p
        assert _shape(build_pqtree(q), same) == _shape(build_pqtree(p), rename), p


def test_a_fields_intervals_and_splits_are_its_restrictions(corpus, fixtures):
    """A field's clone intervals, read off the profile's rankings cut to it,
    and the split of each of its nodes by the profile's margins, a Q node's
    reading order included, are those of the restricted profile.  A neutral
    rule cannot tell a Q node's reading order from its mirror (the two
    blocks it is shown are the mirror's two last, with every ballot's
    preference between them reversed), so no verdict pins the order on a
    field; this does."""
    strings = 0
    for p in [fixtures[f"P{k}"] for k in range(1, 10)] + corpus[:60]:
        for k in range(1, p.m + 1):
            for field in combinations(range(p.m), k):
                codes, table, _ = _clone_intervals(p, sum(1 << c for c in field))
                q = restrict(p, [p.candidates[c] for c in field])
                q_codes, q_table, _ = _clone_intervals(q)
                assert table == q_table, (p, field)
                assert [p.candidates[c] for c in codes] == [q.candidates[c] for c in q_codes]
                todo = [(0, k)]
                while todo:
                    i, j = todo.pop()
                    if j - i > 1:
                        kind, kids = _split(table, codes, p._core, i, j)
                        assert (kind, kids) == _split(q_table, q_codes, q._core, i, j), (p, field)
                        strings += kind == "Q" and len(kids) > 2 and kids[0][0] > i
                        todo.extend(kids)
    assert strings  # some field reads a string of three or more blocks back-to-front
