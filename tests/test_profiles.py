import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonelab.profiles import (
    Profile,
    ProfileParseError,
    add_voter,
    block_name,
    fixture_names,
    load_fixture,
    majority_matrix,
    parse_profile,
    remove_candidates,
    replace_voter,
    restrict,
    reverse_profile,
    serialize_profile,
    summarize,
)


def test_parse_basic():
    p = parse_profile("candidates: a, b, c\n2: a>b>c\n1: c>b>a\n")
    assert p.candidates == ("a", "b", "c")
    assert p.groups == ((("a", "b", "c"), 2), (("c", "b", "a"), 1))
    assert p.m == 3
    assert p.n == 3


def test_parse_comments_and_blank_lines():
    text = "# header comment\ncandidates: a,b\n\n1: a>b  # trailing\n"
    p = parse_profile(text)
    assert p.groups == ((("a", "b"), 1),)


@pytest.mark.parametrize(
    "text",
    [
        "",                                  # empty
        "1: a>b\n1: a>c\n",                  # inferred set broken later
        "candidates: a,b\n",                 # no ballots
        "candidates: a,b\n1: a\n",           # incomplete ranking
        "candidates: a,b\n1: a>b>c\n",       # unknown candidate
        "candidates: a,b\n0: a>b\n",         # non-positive multiplicity
        "candidates: a,b\n-2: a>b\n",
        "candidates: a,a\n1: a>a\n",         # duplicate candidate
        "candidates: a,b\nx: a>b\n",         # malformed multiplicity
        "candidates: a,b\n1: a>a\n",         # repeated in ranking
        "candidates: a,b,a+b,c\n1: a>b>a+b>c\n1: a+b>c>b>a\n1: c>a>b>a+b\n",  # '+' names blocks
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ProfileParseError):
        parse_profile(text)


def test_parse_infers_candidates_without_header():
    p = parse_profile("1: a>b\n2: b>a\n")
    assert p.candidates == ("a", "b")
    assert p.n == 3


def test_fixtures_round_trip():
    names = fixture_names()
    assert set(names) >= {f"P{k}" for k in range(1, 10)}
    for name in names:
        p = load_fixture(name)
        assert parse_profile(serialize_profile(p)) == p


def test_voter_indexing_is_one_based():
    p = parse_profile("candidates: a,b\n2: a>b\n1: b>a\n")
    assert p.voter_ranking(1) == ("a", "b")
    assert p.voter_ranking(2) == ("a", "b")
    assert p.voter_ranking(3) == ("b", "a")
    with pytest.raises(IndexError):
        p.voter_ranking(0)
    with pytest.raises(IndexError):
        p.voter_ranking(4)
    assert list(p.voters()) == [("a", "b"), ("a", "b"), ("b", "a")]


names_st = st.lists(
    st.sampled_from("abcdefg"), min_size=1, max_size=6, unique=True
).map(tuple)


@st.composite
def profiles_st(draw):
    cands = draw(names_st)
    k = draw(st.integers(min_value=1, max_value=4))
    groups = []
    for _ in range(k):
        groups.append(
            (tuple(draw(st.permutations(cands))), draw(st.integers(1, 5)))
        )
    return Profile(candidates=cands, groups=tuple(groups))


@given(profiles_st())
@settings(max_examples=60)
def test_serialize_parse_round_trip(p):
    assert parse_profile(serialize_profile(p)) == p


def test_remove_candidates_keeps_groups_distinct():
    p = parse_profile("candidates: a,b,c\n1: a>b>c\n1: a>c>b\n")
    q = remove_candidates(p, {"b"})
    # both groups collapse to the same ranking but stay separate, so voter
    # numbering is stable
    assert q.groups == ((("a", "c"), 1), (("a", "c"), 1))
    assert q.voter_ranking(2) == ("a", "c")


def test_remove_then_remove_composes(corpus):
    for p in corpus[:80]:
        if p.m < 3:
            continue
        a, b = p.candidates[0], p.candidates[1]
        assert remove_candidates(p, {a, b}) == remove_candidates(
            remove_candidates(p, {a}), {b}
        )


def test_restrict_is_remove_complement(corpus):
    for p in corpus[:80]:
        keep = set(p.candidates[: max(1, p.m // 2)])
        assert restrict(p, keep) == remove_candidates(
            p, set(p.candidates) - keep
        )


def test_restrict_rejects_unknown_names(fixtures):
    with pytest.raises(ValueError, match="zzz"):
        restrict(fixtures["P2"], {"a1", "zzz"})


def test_remove_everything_rejected():
    p = parse_profile("candidates: a,b\n1: a>b\n")
    with pytest.raises(ValueError):
        remove_candidates(p, {"a", "b"})
    with pytest.raises(ValueError):
        remove_candidates(p, {"z"})


def test_block_name():
    assert block_name({"b", "a2", "a1"}) == "a1+a2+b"
    assert block_name({"c"}) == "c"


def test_summarize_majority_clone_pair():
    p = load_fixture("P2")
    s = summarize(p, [{"a1", "a2"}, {"b"}, {"c"}])
    assert s.candidates == ("a1+a2", "b", "c")
    assert s.groups == (
        (("a1+a2", "b", "c"), 3),
        (("a1+a2", "b", "c"), 2),
        (("b", "c", "a1+a2"), 4),
        (("c", "a1+a2", "b"), 3),
    )


def test_summarize_rejects_non_contiguous_block():
    p = parse_profile("candidates: a,b,c\n1: a>b>c\n1: b>a>c\n1: a>c>b\n")
    with pytest.raises(ValueError):
        summarize(p, [{"a", "c"}, {"b"}])
    with pytest.raises(ValueError):
        summarize(p, [{"a"}, {"b"}])  # not a partition


def test_reverse_profile():
    p = parse_profile("candidates: a,b,c\n2: a>b>c\n")
    assert reverse_profile(p).groups == ((("c", "b", "a"), 2),)


def test_add_voter_appends_at_the_end():
    p = parse_profile("candidates: a,b\n2: a>b\n")
    q = add_voter(p, ("b", "a"))
    assert q.n == 3
    assert q.voter_ranking(3) == ("b", "a")
    assert q.voter_ranking(1) == ("a", "b")
    with pytest.raises(ValueError):
        add_voter(p, ("a",))


def test_replace_voter_splits_group():
    p = parse_profile("candidates: a,b\n3: a>b\n")
    q = replace_voter(p, 2, ("b", "a"))
    assert q.n == 3
    assert [q.voter_ranking(i) for i in (1, 2, 3)] == [
        ("a", "b"),
        ("b", "a"),
        ("a", "b"),
    ]


def test_majority_matrix_values():
    p = load_fixture("P3")
    mm = majority_matrix(p)
    assert mm.margin("a1", "a2") == 1
    assert mm.margin("a2", "a1") == -1
    assert mm.margin("a1", "b") == 7
    assert mm.margin("a2", "b") == 7
    assert mm.margin("a1", "c") == -3
    assert mm.margin("a2", "c") == -3
    assert mm.margin("b", "c") == 5
    assert mm.margin("a1", "a1") == 0
    assert mm.defeats("a1", "a2")
    assert not mm.defeats("a2", "a1")
    d = mm.as_dict()
    assert d[("c", "a1")] == 3


def test_majority_matrix_antisymmetry(corpus):
    for p in corpus[:60]:
        mm = majority_matrix(p)
        for a in p.candidates:
            for b in p.candidates:
                assert mm.margin(a, b) == -mm.margin(b, a)
