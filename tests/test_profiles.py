import random
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import brute_margins, brute_parse, brute_restrict, brute_summarize

from clonelab.profiles import (
    Profile,
    ProfileParseError,
    _Core,
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
from clonelab.clones import enumerate_decompositions, is_clone_set
from clonelab.games import GameSpec, utility
from clonelab.pqtree import build_pqtree, internal_nodes
from clonelab.scf import first_place_counts, rp_i, rp_i_ranking, stv_i, stv_i_ranking
from clonelab.transform import _Elector, cc_transform


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


@st.composite
def named_profiles_st(draw):
    """Profiles over arbitrary text names, '+' and line breaks included."""
    cands = tuple(draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True)))
    groups = tuple(
        (tuple(draw(st.permutations(cands))), draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3)))
    )
    try:
        return Profile(candidates=cands, groups=groups)
    except ProfileParseError:  # names repeating a '+'-separated part
        assume(False)


def _one_ballot_over(*names):
    return Profile(candidates=names, groups=((names, 1),))


@given(named_profiles_st())
@example(_one_ballot_over(" a", "b#c"))  # read back as ('a', 'b')
@example(_one_ballot_over("a\x1c", "b,c", "d>e", ""))
@example(_one_ballot_over("a+b", "c"))  # the parser refuses '+'
@settings(max_examples=200)
def test_serialize_never_writes_a_different_profile(p):
    """Serializing either refuses, or the parser refuses loudly, or the
    text reads back as the same profile."""
    try:
        text = serialize_profile(p)
    except ValueError:
        return
    try:
        back = parse_profile(text)
    except ProfileParseError:
        return
    assert back == p


def test_profile_rejects_names_that_repeat_a_block_part():
    """Two disjoint blocks must never get one block_name: ``a+b`` beside
    ``a`` and ``b`` would make the block {a, b} and the candidate {a+b}
    one name in the PQ-tree and in summaries."""
    ranking = ("a", "b", "a+b", "c")
    with pytest.raises(ProfileParseError, match="'\\+'-separated part"):
        Profile(ranking, ((ranking, 1), (("a+b", "a", "b", "c"), 1)))
    with pytest.raises(ProfileParseError):
        Profile(("a", "a+c"), ((("a", "a+c"), 1),))
    p = Profile(("a+b", "c"), ((("a+b", "c"), 1),))  # block names alone are fine
    assert summarize(p, [{"a+b", "c"}]).candidates == ("a+b+c",)


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


def test_a_bare_string_is_refused_as_a_set_of_names():
    """A string is not read as the set of its characters: every function
    that takes a collection of candidate names refuses one, here the string
    "ab" where "ab", "a" and "b" are all candidates."""
    p = Profile(("ab", "a", "b", "c"), ((("ab", "a", "b", "c"), 2), (("c", "b", "a", "ab"), 1)))
    game = GameSpec(p, "rp_i:1")
    refused = [
        lambda: restrict(p, "ab"),
        lambda: remove_candidates(p, "ab"),
        lambda: is_clone_set(p, "ab"),
        lambda: summarize(p, [{"ab"}, "c", "ab"]),
        lambda: summarize(p, "ab"),
        lambda: utility(game, "c", "ab"),
        lambda: first_place_counts(p, "ab"),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="collection of candidate names, not the string"):
            call()
    # the same names as collections are read as names
    assert restrict(p, ["ab"]).candidates == ("ab",)
    assert remove_candidates(p, ("ab",)).candidates == ("a", "b", "c")
    assert is_clone_set(p, {"a", "b"})
    assert summarize(p, [{"ab"}, {"c"}, {"a", "b"}]).candidates == ("ab", "a+b", "c")
    assert utility(game, "c", ["ab"]) == 4 - 3
    assert first_place_counts(p, ["ab"]) == {"ab": 3}


def test_profile_refuses_no_candidates_no_ballots_and_non_positive_counts():
    with pytest.raises(ProfileParseError, match=r"^profile has no candidates$"):
        Profile((), ((("a",), 1),))
    with pytest.raises(ProfileParseError, match=r"^profile has no ballots$"):
        Profile(("a", "b"), ())
    for mult in (0, -2):
        with pytest.raises(ProfileParseError, match=rf"^non-positive multiplicity {mult}$"):
            Profile(("a", "b"), ((("a", "b"), 1), (("b", "a"), mult)))


def test_replace_voter_refuses_an_index_out_of_range():
    p = parse_profile("candidates: a,b\n3: a>b\n")
    for i in (0, 4, -1):
        with pytest.raises(IndexError, match=rf"^voter index {i} out of range 1\.\.3$"):
            replace_voter(p, i, ("b", "a"))


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
    with pytest.raises(ValueError, match="consecutive in ballot"):
        summarize(p, [{"a", "b"}, {"c"}])  # only the third ballot splits a block
    with pytest.raises(ValueError, match="partition"):
        summarize(p, [{"a"}, {"b"}])  # not a partition
    with pytest.raises(ValueError, match="partition"):
        summarize(p, [set(), {"a", "b"}, {"c"}])  # an empty block


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


def _matches_voter_by_voter_count(p: Profile) -> bool:
    mm = majority_matrix(p)
    brute = brute_margins(p)
    return mm.as_dict() == {(a, b): v for (a, b), v in brute.items() if a != b} and all(
        mm.margin(a, a) == 0 for a in p.candidates
    )


def test_majority_matrix_matches_voter_by_voter_count(corpus, fixtures):
    for p in corpus + list(fixtures.values()):
        assert _matches_voter_by_voter_count(p), p


def _one_ballot(m: int, n: int) -> Profile:
    cands = tuple(f"c{k}" for k in range(m))
    return Profile(candidates=cands, groups=((cands[::-1], n),))


@pytest.mark.parametrize("n", [2**k + d for k in (1, 2, 7, 8, 15, 16, 31, 32, 63, 64) for d in (-1, 0, 1)])
def test_majority_matrix_when_one_ballot_holds_every_vote(n):
    """Every win count equals n, the most a field of the packed kernel holds."""
    p = _one_ballot(4, n)
    mm = majority_matrix(p)
    ranking = p.groups[0][0]
    for x, a in enumerate(ranking):
        for y, b in enumerate(ranking):
            assert mm.margin(a, b) == (0 if a == b else n if x < y else -n)
    if n < 5000:
        assert _matches_voter_by_voter_count(p)


def test_majority_matrix_field_width_edges():
    rng = random.Random(6)
    single = Profile(candidates=("a",), groups=((("a",), 3),))
    assert majority_matrix(single).as_dict() == {} and majority_matrix(single).margin("a", "a") == 0
    cands = tuple("abcdefgh")
    one_voter = Profile(candidates=cands, groups=((tuple(rng.sample(cands, 8)), 1),))
    assert _matches_voter_by_voter_count(one_voter)
    counts = [1] * 40  # 10,000 voters over 40 lines, repeated rankings among them
    for _ in range(10_000 - 40):
        counts[rng.randrange(40)] += 1
    pool = [tuple(rng.sample(cands, 8)) for _ in range(25)]
    grouped = Profile(candidates=cands, groups=tuple((rng.choice(pool), c) for c in counts))
    assert grouped.n == 10_000 and _matches_voter_by_voter_count(grouped)


def test_majority_matrix_and_tree_past_one_byte_codes():
    """More than 256 candidates: the core codes rankings as tuples, not bytes."""
    cands = tuple(f"c{k}" for k in range(260))
    ranking = tuple(random.Random(2).sample(cands, 260))
    p = Profile(candidates=cands, groups=((ranking, 2), (ranking[::-1], 1), (ranking, 1)))
    mm = majority_matrix(p)
    assert mm.margin(ranking[0], ranking[-1]) == 2 and mm.margin(ranking[-1], ranking[3]) == -2
    assert _matches_voter_by_voter_count(restrict(p, ranking[::37]))
    tree = build_pqtree(p)  # every interval of the string is a clone set
    assert tree.kind == "Q" and len(tree.children) == 260
    assert tree.orientation == "forward" and not tree.tie
    assert cc_transform("pv", p) == {ranking[0]}  # 3 of 4 voters put it above ranking[1]


def test_voter_indices_survive_repeated_rankings_in_separate_groups():
    """Rankings repeat in groups that are not adjacent; the core counts each
    distinct ranking once, yet every voter index keeps its own ballot."""
    r1, r2 = ("a", "b", "c", "d"), ("c", "a", "d", "b")
    groups = ((r1, 2), (r2, 1), (r1[::-1], 1), (r1, 1), (r2[::-1], 1), (r1[::-1], 2))
    p = Profile(candidates=("a", "b", "c", "d"), groups=groups)
    expanded = [r for r, mult in groups for _ in range(mult)]
    assert all(v == 0 for v in brute_margins(p).values())  # every pair tied
    for i, ballot in enumerate(expanded, start=1):
        assert p.voter_ranking(i) == ballot
        # with every margin tied, ranked pairs follows voter i's own ballot
        assert rp_i_ranking(p, i) == ballot
        moved = Profile(
            candidates=p.candidates,
            groups=((ballot, 1),) + tuple((r, 1) for k, r in enumerate(expanded) if k != i - 1),
        )
        assert stv_i_ranking(p, i) == stv_i_ranking(moved, 1)


def _core_fields(core):
    return core.ballots, core.weights, core.slots, core.rows


def _blocks(p, node):
    """Each child block of a tree node by its representative's code, the
    code of the member voter 1 ranks first, mapped to the block's members."""
    code_of = {c: k for k, c in enumerate(p.candidates)}
    first = p.groups[0][0]
    return {code_of[min(child.members, key=first.index)]: child.members for child in node.children}


def _child_summary(p, blocks):
    """The block summary of ``blocks`` (as :func:`_blocks` gives them) that
    the elector shows a plain callable, captured by one that records it."""
    shown = []

    def record(profile):
        shown.append(profile)
        return frozenset(profile.candidates[:1])

    _Elector(record, p)(sum(1 << c for c in blocks), blocks)
    (summary,) = shown
    return summary


def _derived_checking_rows(base, derive, *args):
    """``derive(base, *args)``, checking that the derived core has margin rows
    exactly when base had them at derivation, and that base gains none."""
    rows = base._core._rows
    q = derive(base, *args)
    assert base._core._rows is rows
    assert (q._core._rows is None) == (rows is None)
    return q


def _assert_derived_cores_match_rebuilt(p):
    """Every restriction, single removal and node summary of p, derived
    before and after p's margin rows exist, has the core a profile rebuilt
    from its public groups would have, rows included when they were cut at
    derivation."""
    for rows_first in (False, True):
        base = Profile(p.candidates, p.groups)  # a fresh core, rows not counted yet
        if rows_first:
            base._core.rows
        removals = [
            _derived_checking_rows(base, remove_candidates, {c})
            for c in base.candidates[: base.m - 1]
        ]
        # removals of removals, derived before their middle's rows are read ...
        derived = [
            _derived_checking_rows(q, remove_candidates, {q.candidates[-1]})
            for q in removals if q.m > 1
        ]
        for q in removals:
            q._core.rows  # ... and after
        derived += [
            _derived_checking_rows(q, remove_candidates, {q.candidates[0]})
            for q in removals if q.m > 1
        ]
        derived += removals
        derived += [_derived_checking_rows(base, restrict, keep) for k in range(1, base.m + 1)
                    for keep in combinations(base.candidates, k)]
        nodes = internal_nodes(build_pqtree(base))
        derived += [_derived_checking_rows(base, _child_summary, _blocks(base, node)) for node in nodes]
        for q in derived:
            want = _core_fields(_Core(Profile(q.candidates, q.groups)))
            assert _core_fields(q._core) == want, (p, q)


def test_derived_cores_match_rebuilt_cores(corpus, fixtures):
    for p in [*corpus, *fixtures.values()]:
        _assert_derived_cores_match_rebuilt(p)


def test_derived_cores_merge_rankings_and_keep_voter_indices():
    """Distinct rankings that become equal merge in the derived core, while
    every voter keeps their own ballot for the voter-indexed rules."""
    groups = (
        (("a", "b", "c", "d"), 2),
        (("b", "a", "d", "c"), 1),
        (("c", "d", "a", "b"), 1),
        (("a", "c", "b", "d"), 1),
        (("d", "c", "b", "a"), 2),
    )
    p = Profile(candidates=("a", "b", "c", "d"), groups=groups)
    _assert_derived_cores_match_rebuilt(p)
    p._core.rows
    for keep in ({"a", "c"}, {"a", "c", "d"}, {"b", "d"}):
        q = restrict(p, keep)
        rebuilt = Profile(q.candidates, q.groups)
        assert len(q._core.ballots) < len(p._core.ballots)  # some rankings merged
        assert _core_fields(q._core) == _core_fields(rebuilt._core)
        for i in range(1, q.n + 1):
            assert rp_i_ranking(q, i) == rp_i_ranking(rebuilt, i)
            assert rp_i(q, i) == rp_i(rebuilt, i)
            assert stv_i_ranking(q, i) == stv_i_ranking(rebuilt, i)
            assert stv_i(q, i) == stv_i(rebuilt, i)
        # a removal from a restriction
        r = remove_candidates(q, {q.candidates[0]})
        assert _core_fields(r._core) == _core_fields(_Core(Profile(r.candidates, r.groups)))


def _past_one_byte_codes():
    """A 257-candidate profile, voter 1's ranking and a block planted in it."""
    cands = tuple(f"c{k}" for k in range(257))
    rng = random.Random(9)
    ranking, other = tuple(rng.sample(cands, 257)), tuple(rng.sample(cands, 257))
    block = ranking[100:104]
    swapped = ranking[:100] + block[::-1] + ranking[104:]
    rest = [c for c in other if c not in block]
    other = (*rest[:50], *block[1:], block[0], *rest[50:])  # the block kept whole
    p = Profile(
        candidates=cands,
        groups=((ranking, 2), (ranking[::-1], 1), (other, 1), (swapped, 1), (ranking, 1)),
    )
    return p, ranking, block


def test_derived_cores_past_one_byte_codes():
    """A 257-candidate base codes rankings as tuples; profiles derived from
    it code theirs as bytes up to 256 candidates and as tuples above, as a
    rebuilt profile would, and name their groups as the oracles do.  A
    planted block gives summaries that merge some of its rankings."""
    p, ranking, block = _past_one_byte_codes()
    cands = p.candidates
    tree = build_pqtree(p)
    for rows_first in (False, True):
        base = Profile(p.candidates, p.groups)
        if rows_first:
            base._core.rows
        derived = [
            _derived_checking_rows(base, remove_candidates, {cands[5]}),
            _derived_checking_rows(base, restrict, cands),
            _derived_checking_rows(base, restrict, ranking[::37]),
            _derived_checking_rows(base, remove_candidates, ranking[:3]),
            _derived_checking_rows(base, _child_summary, _blocks(base, tree)),
        ]
        for q in derived:
            assert _core_fields(q._core) == _core_fields(_Core(Profile(q.candidates, q.groups)))
        assert isinstance(derived[0]._core.ballots[0], bytes)
        assert isinstance(derived[1]._core.ballots[0], tuple)
    subsets = [cands, ranking[::37], ranking[:256], ranking[1:], cands[:2], block, (cands[5],)]
    _assert_derivations_match_brute(p, subsets)


def _assert_joined_cores_match_rebuilt(p, rankings):
    """Each ranking joined to p, and a second ranking joined to that, before
    and after p's margin rows exist, gives the core a profile rebuilt from
    the joined groups has; the joined core has margin rows exactly when its
    base had them, and the base's core is left as it was."""
    for rows_first in (False, True):
        base = Profile(p.candidates, p.groups)  # a fresh core, rows not counted yet
        if rows_first:
            base._core.rows
        core = base._core
        before = (core.ballots, core.weights, core.slots, core._rows)
        for r, s in zip(rankings, rankings[1:] + rankings[:1]):
            q = _derived_checking_rows(base, add_voter, r)
            qq = _derived_checking_rows(q, add_voter, s)
            for joined in (q, qq):
                want = _core_fields(_Core(Profile(joined.candidates, joined.groups)))
                assert _core_fields(joined._core) == want, (p, r, s)
            assert base._core is core
            assert (core.ballots, core.weights, core.slots, core._rows) == before


def test_joined_cores_match_rebuilt_cores(corpus, fixtures):
    """Ballots the base holds (each group's) and ballots it may not (their
    reversals, and voter 1's rotated) are joined as a rebuilt profile would
    count them."""
    new = 0
    for p in [*corpus, *fixtures.values()]:
        held = [r for r, _ in p.groups]
        first = held[0]
        rankings = [*held, *(r[::-1] for r in held), first[1:] + first[:1]]
        _assert_joined_cores_match_rebuilt(p, rankings)
        new += sum(r not in held for r in rankings)
    assert new


def test_joined_cores_past_one_byte_codes():
    p, ranking, block = _past_one_byte_codes()
    rankings = [ranking, ranking[::-1], ranking[1:] + ranking[:1], p.groups[2][0]]
    _assert_joined_cores_match_rebuilt(p, rankings)
    joined = add_voter(p, ranking[1:] + ranking[:1])
    assert isinstance(joined._core.ballots[-1], tuple) and len(joined._core.ballots) == 5


@pytest.mark.parametrize(
    "ballot, message",
    [
        (("a", "b"), "ballot is missing candidate(s) ['c']"),
        (("a", "b", "b"), "duplicate candidate in ballot ('a', 'b', 'b')"),
        (("a", "b", "z"), "unknown candidate(s) ['z'] in ballot"),
        (("a", "b", "c", "z"), "unknown candidate(s) ['z'] in ballot"),
    ],
)
def test_add_voter_rejects_a_bad_ballot_as_a_profile_would(ballot, message):
    p = parse_profile("candidates: a,b,c\n2: a>b>c\n1: c>b>a\n")
    p._core.rows
    with pytest.raises(ProfileParseError) as caught:
        add_voter(p, ballot)
    assert str(caught.value) == message
    with pytest.raises(ProfileParseError) as built:
        Profile(p.candidates, p.groups + ((ballot, 1),))
    assert str(built.value) == message


def _read(parse, text):
    """The profile ``parse`` reads from ``text``, or the message it refuses it with."""
    try:
        return parse(text)
    except ProfileParseError as err:
        return f"ProfileParseError: {err}"


def _assert_parses_as_oracle(text):
    """``parse_profile`` reads what the line-by-line oracle reads, or refuses
    with its message; a profile it reads has the core its groups give."""
    got, want = _read(parse_profile, text), _read(brute_parse, text)
    assert got == want, text
    if isinstance(want, Profile):
        assert _core_fields(got._core) == _core_fields(_Core(Profile(got.candidates, got.groups))), text


def _spaced(rng, ranking):
    """A ranking written with spaces of its own around each name."""
    return ">".join(rng.choice(["", " ", "  "]) + c + rng.choice(["", " "]) for c in ranking)


def _repeating_text(rng, cands, lines):
    """``lines`` ballots over a few rankings of ``cands``, each line spaced
    at random, under a header or (half the time) none."""
    pool = [rng.sample(cands, len(cands)) for _ in range(rng.randint(1, 3))]
    rows = ["candidates: " + ",".join(cands)] if rng.random() < 0.5 else []
    rows += [f"{rng.randint(1, 3)}: " + _spaced(rng, rng.choice(pool)) for _ in range(lines)]
    return "\n".join(rows) + "\n"


def test_parse_matches_oracle(corpus):
    fixtures_dir = resources.files("clonelab.fixtures")
    for name in fixture_names():
        _assert_parses_as_oracle(fixtures_dir.joinpath(f"{name}.profile").read_text(encoding="utf-8"))
    for p in corpus:
        _assert_parses_as_oracle(serialize_profile(p))
    rng = random.Random(20261020)
    for _ in range(200):
        _assert_parses_as_oracle(_repeating_text(rng, list("abcdef"[: rng.randint(1, 6)]), rng.randint(1, 12)))
    wide = _repeating_text(rng, [f"c{k}" for k in range(257)], 40)  # codes as tuples
    _assert_parses_as_oracle(wide)
    assert isinstance(parse_profile(wide)._core.ballots[0], tuple)


def test_parse_reads_one_ranking_spaced_apart_into_one_slot():
    p = parse_profile("candidates: a,b,c\n1: a>b>c\n2:  a > b>c \n1: c>b>a\n1: a>b>c\n")
    assert p.groups == ((("a", "b", "c"), 1), (("a", "b", "c"), 2), (("c", "b", "a"), 1), (("a", "b", "c"), 1))
    assert _core_fields(p._core)[:3] == ((b"\x00\x01\x02", b"\x02\x01\x00"), (4, 1), (0, 0, 1, 0))


_HEADER_NAMES = st.sampled_from(["a", "b", "c", " b", "", "d", "a+b"])
_TOKENS = st.sampled_from(["a", "b", "c", " a", "b ", " c ", "", " ", "d", "a+b"])
_PADS = st.sampled_from(["", " ", "  "])
_COUNTS = st.one_of(st.sampled_from(["1", "2", " 3 "]), st.sampled_from(["0", "-1", "x", "", "1.5", "+1"]))


@st.composite
def profile_lines_st(draw):
    """One line of profile text: a ballot (often a permutation of a, b and c,
    otherwise any tokens), a comment, a blank line or a ballot without its
    count."""
    kind = draw(st.one_of(st.just("permutation"), st.sampled_from(["tokens", "comment", "blank", "no colon"])))
    if kind == "comment":
        return "# " + draw(st.sampled_from(["note", "1: a>b", ""]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   "]))
    if kind == "permutation":
        ballot = ">".join(draw(_PADS) + c + draw(_PADS) for c in draw(st.permutations("abc")))
    else:
        ballot = ">".join(draw(st.lists(_TOKENS, min_size=1, max_size=4)))
    if kind == "no colon":
        return ballot
    return f"{draw(_COUNTS)}:{ballot}{draw(st.sampled_from(['', '  # trailing']))}"


@st.composite
def profile_texts_st(draw):
    """Profile text, often malformed: headers with duplicate, empty or '+'
    names, unknown, missing, duplicate and empty names in ballots, zero,
    negative and malformed counts, comments and blank lines, and a few
    lines repeated in any order."""
    rows = []
    header = draw(st.one_of(st.none(), st.permutations("abc"), st.lists(_HEADER_NAMES, min_size=1, max_size=4)))
    if header is not None:
        rows.append("candidates: " + ",".join(header))
    pool = draw(st.lists(profile_lines_st(), min_size=1, max_size=4))
    rows += [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))]
    return "\n".join(rows) + "\n"


@given(profile_texts_st())
@example("candidates: a,b,c\n1: a>b>c\n1: a>b>c\n1: a>a>c\n")  # a repeated text, then a bad one
@example("candidates: a,b,c\n1: a>b>c\n1: a>b\n")  # a ballot that is not a permutation
@example("1: a>b\n1:a > b\n2: b>a>b\n")  # no header, one ranking spaced apart
@settings(max_examples=300)
def test_parse_matches_oracle_on_malformed_text(text):
    _assert_parses_as_oracle(text)


def _assert_derivations_match_brute(p, subsets):
    """Each restriction to ``subsets``, every single removal, removals of
    removals, every summary over a clone decomposition and every node's
    child summary of p, derived before and after p's margin rows exist,
    equals the profile the name-level oracles build."""
    everyone = set(p.candidates)
    for rows_first in (False, True):
        base = Profile(p.candidates, p.groups)  # a fresh core, rows not counted yet
        if rows_first:
            base._core.rows
        for keep in subsets:
            assert restrict(base, keep) == brute_restrict(p, keep), (p, keep)
        for c in p.candidates[: p.m - 1]:
            once = remove_candidates(base, {c})
            assert once == brute_restrict(p, everyone - {c}), (p, c)
            if once.m > 1:
                d = once.candidates[-1]
                twice = remove_candidates(once, {d})
                assert twice == brute_restrict(p, everyone - {c, d}), (p, c, d)
        for blocks in enumerate_decompositions(base):
            assert summarize(base, blocks) == brute_summarize(p, blocks), (p, blocks)
        for node in internal_nodes(build_pqtree(base)):
            blocks = [child.members for child in node.children]
            want = brute_summarize(brute_restrict(p, node.members), blocks)
            assert _child_summary(base, _blocks(base, node)) == want, (p, node)


def test_derivations_match_name_level_oracles(corpus, fixtures):
    for p in [*corpus, *fixtures.values()]:
        subsets = [keep for k in range(1, p.m + 1) for keep in combinations(p.candidates, k)]
        _assert_derivations_match_brute(p, subsets)

