import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonelab.clones import (
    EnumerationCapExceeded,
    canonical_decomposition,
    clone_metric,
    clone_structure,
    enumerate_decompositions,
    is_clone_set,
)
from clonelab.profiles import Profile, parse_profile, restrict

from oracles import brute_clone_sets, brute_decompositions, nonempty_subsets


def test_is_clone_set():
    p = parse_profile("candidates: a,b,c,d\n1: a>b>c>d\n1: d>c>b>a\n")
    assert is_clone_set(p, {"b", "c"})
    assert is_clone_set(p, {"a", "b", "c"})
    assert is_clone_set(p, {"a"})
    assert is_clone_set(p, set(p.candidates))
    assert not is_clone_set(p, {"a", "c"})
    assert not is_clone_set(p, set())
    assert is_clone_set(p, ["a", "a"])  # a repeated name counts once
    assert is_clone_set(p, ["b", "c", "b"])
    with pytest.raises(ValueError):
        is_clone_set(p, {"z"})


def test_is_clone_set_matches_brute_force(fixtures, corpus):
    for p in [*fixtures.values(), *corpus[:120]]:
        sets = brute_clone_sets(p)
        for subset in nonempty_subsets(p.candidates):
            assert is_clone_set(p, set(subset)) == (frozenset(subset) in sets), (p, subset)


def _consecutive(p: Profile, members: set[str]) -> bool:
    """``members`` by definition: one run on every ballot."""
    for ranking, _ in p.groups:
        places = [k for k, c in enumerate(ranking) if c in members]
        if places[-1] - places[0] + 1 != len(members):
            return False
    return True


def test_is_clone_set_past_256_candidates():
    """At m = 257 the core codes ballots as tuples, not bytes.  The second
    ballot reverses places 100..199 and the third swaps the last two, so
    intervals inside, around and across those runs all occur."""
    names = [f"c{k}" for k in range(257)]
    second = names[:100] + names[199:99:-1] + names[200:]
    third = names[:255] + names[:254:-1]
    p = Profile(tuple(names), ((tuple(names), 1), (tuple(second), 2), (tuple(third), 1)))
    spans = [(0, 257), (0, 100), (100, 200), (120, 180), (199, 257), (200, 257), (90, 110),
             (0, 101), (99, 200), (255, 257), (254, 256), (256, 257), (5, 6)]
    picks = [set(names[a:b]) for a, b in spans] + [{"c0", "c2"}, {"c100", "c199"}, {"c1", "c256"}]
    verdicts = [is_clone_set(p, s) for s in picks]
    assert verdicts == [_consecutive(p, s) for s in picks]
    assert True in verdicts and False in verdicts


def test_clone_metric_rejects_unknown_candidates():
    p = parse_profile("1: a>b>c\n1: c>b>a\n")
    with pytest.raises(ValueError, match="zz"):
        clone_metric(p, "a", "zz")


def test_structure_of_running_example(fixtures):
    f = clone_structure(fixtures["P1"])
    singletons = {frozenset({c}) for c in "abcd"}
    assert set(f) == singletons | {frozenset({"b", "c"}), frozenset("abcd")}


def test_structure_matches_brute_force(corpus):
    for p in corpus:
        assert frozenset(clone_structure(p)) == brute_clone_sets(p)


def test_overlapping_clone_sets_union_and_intersect(corpus):
    """Two properly overlapping clone sets have clone-set union,
    intersection, and differences."""
    for p in corpus[:200]:
        f = clone_structure(p)
        fs = set(f)
        for k1 in f:
            for k2 in f:
                if k1 & k2 and not (k1 <= k2 or k2 <= k1):
                    assert k1 | k2 in fs
                    assert k1 & k2 in fs
                    assert k1 - k2 in fs
                    assert k2 - k1 in fs


def test_restriction_can_create_clone_sets():
    """A restriction's clone sets are not those of the profile cut down: here
    the profile has only trivial clone sets, while dropping x makes {b, c} a
    clone set.  So a subset's tree is not a restriction of the profile's."""
    p = parse_profile("candidates: a,b,c,x\n1: b>x>c>a\n1: c>b>a>x\n")
    trivial = {frozenset({c}) for c in p.candidates} | {frozenset(p.candidates)}
    assert set(clone_structure(p)) == trivial
    assert frozenset({"b", "c"}) in clone_structure(restrict(p, {"a", "b", "c"}))


def test_clone_metric_axioms(corpus):
    for p in corpus[:120]:
        cands = p.candidates
        for a in cands:
            assert clone_metric(p, a, a) == 0
            for b in cands:
                d = clone_metric(p, a, b)
                assert d == clone_metric(p, b, a)
                if a != b:
                    assert 1 <= d <= p.m - 1
                for c in cands:
                    assert clone_metric(p, a, c) <= d + clone_metric(p, b, c)


def test_clone_metric_values(fixtures):
    p2 = fixtures["P2"]
    assert clone_metric(p2, "a1", "a2") == 1
    assert clone_metric(p2, "a1", "b") == 3
    assert clone_metric(p2, "b", "c") == 3


def test_canonical_decomposition_is_sorted():
    d = canonical_decomposition([{"c"}, {"a1", "a2"}, {"b"}])
    assert d == (frozenset({"a1", "a2"}), frozenset({"b"}), frozenset({"c"}))


def test_enumerate_decompositions_single_voter():
    # one ballot over m candidates: every interval is a clone set, so the
    # decompositions are exactly the compositions of m
    p = parse_profile("candidates: a,b,c,d\n1: a>b>c>d\n")
    decs = enumerate_decompositions(p)
    assert len(decs) == 2 ** (p.m - 1)
    assert all(dec == tuple(sorted(dec, key=lambda s: tuple(sorted(s)))) for dec in decs)
    assert len(set(decs)) == len(decs)


def test_enumerate_decompositions_fixture(fixtures):
    decs = enumerate_decompositions(fixtures["P1"])
    blocks = {tuple(sorted(tuple(sorted(k)) for k in dec)) for dec in decs}
    assert blocks == {
        (("a",), ("b",), ("c",), ("d",)),
        (("a",), ("b", "c"), ("d",)),
        (("a", "b", "c", "d"),),
    }


def test_enumerate_decompositions_deterministic(corpus):
    for p in corpus[:100]:
        assert enumerate_decompositions(p) == enumerate_decompositions(p)


def test_decomposition_blocks_partition(corpus):
    for p in corpus[:100]:
        f = set(clone_structure(p))
        for dec in enumerate_decompositions(p):
            union = set()
            total = 0
            for block in dec:
                assert block in f
                union |= block
                total += len(block)
            assert union == set(p.candidates) and total == p.m


def test_decompositions_match_the_partition_oracle(corpus, fixtures):
    """The tilings of voter 1's ranking by clone intervals, ranked once per
    interval and sorted, list exactly the partitions into clone sets in the
    order the subset oracle sorts them, and the cap fires exactly past it."""
    for p in [*fixtures.values(), *corpus[:200]]:
        want = brute_decompositions(p)
        assert enumerate_decompositions(p) == want
        assert enumerate_decompositions(p, cap=len(want)) == want
        with pytest.raises(EnumerationCapExceeded, match=f"more than {len(want) - 1} "):
            enumerate_decompositions(p, cap=len(want) - 1)


def test_enumeration_cap():
    p = parse_profile("candidates: a,b,c,d,e\n1: a>b>c>d>e\n")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_decompositions(p, cap=3)
    assert len(enumerate_decompositions(p, cap=16)) == 16


names_st = st.lists(st.sampled_from("abcdef"), min_size=2, max_size=5, unique=True).map(tuple)


@st.composite
def small_profiles(draw):
    cands = draw(names_st)
    k = draw(st.integers(1, 3))
    groups = tuple(
        (tuple(draw(st.permutations(cands))), 1) for _ in range(k)
    )
    return Profile(candidates=cands, groups=groups)


@given(small_profiles())
@settings(max_examples=80, deadline=None)
def test_structure_always_contains_trivial_sets(p):
    f = set(clone_structure(p))
    assert frozenset(p.candidates) in f
    for c in p.candidates:
        assert frozenset({c}) in f
    assert f == brute_clone_sets(p)
