"""Winner rules: frozen expectations on the bundled profiles plus
oracle-equivalence and containment laws on the random corpus."""

import hashlib
import time

import pytest

from clonelab.pqtree import build_pqtree, internal_nodes
from clonelab.profiles import (
    MajorityMatrix,
    load_fixture,
    majority_matrix,
    parse_profile,
    remove_candidates,
    serialize_profile,
)
from clonelab.scf import (
    StrengthMatrix,
    _bits,
    alt_smith,
    beatpath,
    condorcet_winner,
    first_place_counts,
    priority_order,
    pv,
    rp_i,
    rp_i_ranking,
    rp_n,
    rp_put,
    rp_put_rankings,
    schwartz,
    sigma_i,
    smith,
    split_cycle,
    strength_matrix,
    stv,
    stv_i,
    stv_i_ranking,
    uc_fishburn,
    uc_gillies,
)
from clonelab.spf import _RULES
from clonelab.transform import RULE_IDS, resolve_rule

from conftest import build_census, rule_ids
from oracles import (
    brute_cc_transform,
    brute_restrict,
    brute_summarize,
    brute_path_strength,
    brute_schwartz,
    brute_smith,
    brute_split_cycle,
    is_strict_stack,
    is_weak_stack,
    literal_ranked_pairs_orders,
)
from itertools import combinations, permutations


# ---------------------------------------------------------------------------
# frozen fixture expectations


def test_plurality(fixtures):
    assert pv(fixtures["P1"]) == {"b"}
    assert pv(fixtures["P2"]) == {"b"}
    assert first_place_counts(fixtures["P1"]) == {"a": 4, "b": 6, "c": 0, "d": 5}
    assert first_place_counts(fixtures["P1"], among={"b", "c"}) == {"b": 8, "c": 7}
    assert first_place_counts(fixtures["P1"], among=["c", "b"]) == {"b": 8, "c": 7}
    assert first_place_counts(fixtures["P1"], among=("c",)) == {"c": 15}
    for perm in permutations("abcd"):
        assert first_place_counts(fixtures["P1"], among=perm) == {"a": 4, "b": 6, "c": 0, "d": 5}


def test_plurality_collapses_under_cloning(fixtures):
    # the clone pair splits its majority, handing the win to b; removing
    # either twin restores it
    p2 = fixtures["P2"]
    assert pv(p2) == {"b"}
    assert pv(remove_candidates(p2, {"a2"})) == {"a1"}
    assert pv(remove_candidates(p2, {"a1"})) == {"a2"}


def test_stv(fixtures):
    assert stv(fixtures["P1"]) == {"d"}
    assert stv(fixtures["P2"]) == {"a1"}
    assert stv(fixtures["P6"]) == {"a2", "a3"}  # parallel universes


def test_stv_i(fixtures):
    p1 = fixtures["P1"]
    for voter in (1, 2, 3):
        assert stv_i(p1, voter) == {"d"}
    assert stv_i_ranking(p1, 1) == ("d", "b", "a", "c")
    p6 = fixtures["P6"]
    for voter in range(1, p6.n + 1):
        assert len(stv_i(p6, voter)) == 1
        assert stv_i(p6, voter) <= stv(p6)
    with pytest.raises(IndexError):
        stv_i(p1, 0)


def test_sigma_i_orders_pairs_by_voter_positions(fixtures):
    pairs = sigma_i(fixtures["P2"], 1)  # voter 1 ranks a1>a2>b>c
    assert pairs == (
        frozenset({"a1", "a2"}),
        frozenset({"a1", "b"}),
        frozenset({"a1", "c"}),
        frozenset({"a2", "b"}),
        frozenset({"a2", "c"}),
        frozenset({"b", "c"}),
    )


def test_priority_order_all_ties(fixtures):
    # every margin in P5 is zero, so priority falls entirely to voter 1
    order = priority_order(fixtures["P5"], 1)
    assert order == (
        ("a", "b"), ("b", "a"),
        ("a", "c"), ("c", "a"),
        ("b", "c"), ("c", "b"),
    )


def test_ranked_pairs_single_voter_tiebreak(fixtures):
    p3 = fixtures["P3"]
    for voter in (1, 13):
        assert rp_i_ranking(p3, voter) == ("a1", "a2", "b", "c")
        assert rp_i(p3, voter) == {"a1"}
    p8 = fixtures["P8"]
    assert rp_i(p8, 1) == {"a"}
    assert rp_i(p8, 2) == {"c"}


def test_ranked_pairs_all_tiebreaks(fixtures):
    p5 = fixtures["P5"]
    assert rp_n(p5) == {"a", "c"}
    assert rp_put(p5) == {"a", "b", "c"}
    assert rp_put_rankings(p5) == frozenset(permutations(("a", "b", "c")))
    assert rp_n(fixtures["P1"]) == {"b"}


def test_strength_matrix_values(fixtures):
    s = strength_matrix(fixtures["P3"])
    assert s.strength("a1", "a2") == 3 and s.strength("a2", "a1") == 3
    assert s.strength("a1", "b") == 7 and s.strength("b", "a1") == 3
    assert s.strength("a1", "c") == 5 and s.strength("c", "a1") == 3
    assert s.strength("a2", "b") == 7 and s.strength("b", "a2") == 3
    assert s.strength("a2", "c") == 5 and s.strength("c", "a2") == 3
    assert s.strength("b", "c") == 5 and s.strength("c", "b") == 3


def test_strength_matrix_diagonal_and_dict(fixtures):
    s = strength_matrix(fixtures["P3"])
    assert all(s.strength(c, c) == 0 for c in s.candidates)
    assert s.as_dict() == {
        ("a1", "a2"): 3, ("a2", "a1"): 3, ("a1", "b"): 7, ("b", "a1"): 3,
        ("a1", "c"): 5, ("c", "a1"): 3, ("a2", "b"): 7, ("b", "a2"): 3,
        ("a2", "c"): 5, ("c", "a2"): 3, ("b", "c"): 5, ("c", "b"): 3,
    }


def test_pairwise_views_compare_by_class_and_value(fixtures):
    """Views of one class built apart are equal, with equal hashes; a margin
    view never equals a strength view, even over the same rows."""
    p = fixtures["P3"]
    q = parse_profile(serialize_profile(p))
    for view in (majority_matrix, strength_matrix):
        assert view(p) == view(q) and hash(view(p)) == hash(view(q))
        assert view(p) != view(fixtures["P1"])
    m = majority_matrix(p)
    assert isinstance(m, MajorityMatrix)
    assert StrengthMatrix(m.candidates, m._rows, m._index) != m
    assert strength_matrix(p) != majority_matrix(p)


# Each registered winner rule's public name and the first 16 hex digits of
# the SHA-256 of its docstring: writing a rule as a decorated function of
# its margin rows keeps both.
_RULE_DOCS = {
    "as": ("alt_smith", "8c53d338f8c372a0"),
    "bp": ("beatpath", "deead5d631497704"),
    "pv": ("pv", "bc0429cb029f630b"),
    "rp": ("rp_put", "600c4bb51d609eda"),
    "rp_n": ("rp_n", "a1ec39089a7ef9da"),
    "sc": ("split_cycle", "9b405e00cfcd391b"),
    "schwartz": ("schwartz", "18966f1141ebfb26"),
    "smith": ("smith", "94b55f4f24dcf3d1"),
    "stv": ("stv", "c967e55899bec99b"),
    "ucf": ("uc_fishburn", "22462edf1f9fdf05"),
    "ucg": ("uc_gillies", "7fecb1b3e83beefb"),
    "rp_i": ("rp_i", "95b6730240030bf0"),
    "stv_i": ("stv_i", "16f0127649409f6e"),
}


def test_registered_rules_keep_their_names_docs_and_entries(fixtures):
    assert {rid.partition(":")[0] for rid in RULE_IDS} == _RULE_DOCS.keys()
    p = fixtures["P1"]
    full = (1 << p.m) - 1
    for rid, (name, digest) in _RULE_DOCS.items():
        fn, suffix = _RULES["scf", rid]
        assert (fn.__name__, fn.__qualname__) == (name, name)
        assert hashlib.sha256(fn.__doc__.encode()).hexdigest()[:16] == digest, rid
        args = () if suffix is None else (1,)
        won = fn._on(p, *args)(full)
        assert {p.candidates[c] for c in _bits(won)} == fn(p, *args), rid


def test_beatpath_and_split_cycle(fixtures):
    assert beatpath(fixtures["P3"]) == {"a1", "a2"}
    assert split_cycle(fixtures["P3"]) == {"a1", "a2"}
    assert beatpath(fixtures["P1"]) == {"b", "c"}
    assert split_cycle(fixtures["P1"]) == {"b", "c"}


def test_smith_and_schwartz(fixtures):
    assert smith(fixtures["P1"]) == frozenset("abcd")
    assert schwartz(fixtures["P1"]) == frozenset("abcd")
    assert smith(fixtures["P7"]) == {"a1", "a2", "b", "c"}
    assert smith(fixtures["P5"]) == {"a", "b", "c"}
    assert schwartz(fixtures["P5"]) == {"a", "b", "c"}


def test_alt_smith(fixtures):
    assert alt_smith(fixtures["P1"]) == {"d"}
    assert alt_smith(fixtures["P2"]) == {"a1"}
    assert alt_smith(fixtures["P5"]) == {"a", "c"}


def test_uncovered_sets(fixtures):
    assert uc_gillies(fixtures["P3"]) == {"a1", "b", "c"}
    assert uc_fishburn(fixtures["P3"]) == {"a1", "b", "c"}
    assert uc_gillies(fixtures["P1"]) == {"a", "b", "d"}
    assert uc_fishburn(fixtures["P1"]) == {"a", "b", "d"}


def test_condorcet_winner(fixtures):
    assert condorcet_winner(fixtures["P1"]) is None
    assert condorcet_winner(fixtures["P3"]) is None
    p = parse_profile("candidates: a,b,c\n2: a>b>c\n1: b>a>c\n")
    assert condorcet_winner(p) == "a"


# ---------------------------------------------------------------------------
# oracle equivalences


def test_smith_matches_brute_force(corpus):
    for p in corpus:
        assert smith(p) == brute_smith(p)


def test_schwartz_matches_brute_force(corpus):
    for p in corpus:
        assert schwartz(p) == brute_schwartz(p)


def test_split_cycle_matches_brute_force(corpus):
    for p in corpus:
        assert split_cycle(p) == brute_split_cycle(p), p


def test_rp_i_is_the_unique_strict_stack(corpus):
    """Enumerating all rankings, exactly one is a stack whose every link
    strictly out-prioritises the reversed pair — and it's the one built."""
    for p in corpus:
        stacks = {
            r for r in permutations(p.candidates) if is_strict_stack(p, r, 1)
        }
        assert stacks == {rp_i_ranking(p, 1)}, p


def test_rp_put_equals_weak_stacks(corpus, small_profiles):
    """The corpus stops at 5 candidates; the two- and four-ballot profiles
    carry the check to 6."""
    for p in corpus + [q for q in small_profiles if len(q.candidates) <= 6]:
        weaks = {r for r in permutations(p.candidates) if is_weak_stack(p, r)}
        assert rp_put_rankings(p) == weaks, p


def test_rp_put_matches_literal_tie_order_simulation(corpus):
    checked = 0
    for p in corpus:
        lit = literal_ranked_pairs_orders(p, limit=3000)
        if lit is None:
            continue
        assert lit == rp_put_rankings(p), p
        checked += 1
    assert checked >= 300  # the skip guard must not hollow the test out


# An impartial m=8, n=3 profile on which the earlier search over locked-graph
# closures took 25-67 s of CPU; its 109 rankings, recorded from that search,
# one string of candidate indices each (c5>c7>... is "57...").
BLOW_UP = """candidates: c0,c1,c2,c3,c4,c5,c6,c7
1: c5>c7>c2>c0>c3>c1>c6>c4
1: c1>c3>c7>c4>c5>c6>c0>c2
1: c6>c2>c3>c4>c0>c7>c1>c5
"""
BLOW_UP_RANKINGS = """
    01523764 01562374 01623745 15237640 15623740 16237450 23701456 23701564
    23701645 23714560 23715640 23716450 23740156 23745016 23745601 23750164
    23756014 23756401 23760145 23764015 23764501 37014562 37015624 37016245
    37016452 37145620 37156240 37162450 37164520 37201456 37201564 37201645
    37214560 37215640 37216450 37240156 37245016 37245601 37401562 37450162
    37452016 37452160 37456201 37501624 37520164 37521640 37524016 37562014
    37562140 37562401 37601452 37601524 37620145 37621450 37624015 37624501
    37640152 37645201 50162374 52370164 52371640 52374016 52376014 52376401
    56237014 56237140 56237401 60152374 62370145 62371450 62374015 62374501
    62375014 70152364 70156234 70162345 71523640 71562340 71623450 72301456
    72301564 72301645 72314560 72315640 72316450 72340156 72345016 72345601
    72350164 72356014 72356401 72360145 72364015 72364501 75016234 75230164
    75231640 75234016 75236014 75236401 75623014 75623140 75623401 76015234
    76230145 76231450 76234015 76234501 76235014
""".split()


def test_rp_put_on_the_closure_search_blow_up():
    p = parse_profile(BLOW_UP)
    start = time.perf_counter()
    rankings = rp_put_rankings(p)
    winners = rp_put(p)
    elapsed = time.perf_counter() - start
    assert rankings == {tuple(f"c{d}" for d in r) for r in BLOW_UP_RANKINGS}
    assert all(is_weak_stack(p, r) for r in rankings)
    assert winners == {"c0", "c1", "c2", "c3", "c5", "c6", "c7"}
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("m, max_n, profiles, simulated", [(3, 7, 924, 924), (4, 3, 325, 316)])
def test_rp_put_matches_the_simulation_on_the_census(m, max_n, profiles, simulated):
    """Every profile up to renaming (see ``build_census``) against the
    literal tie-order simulation, wherever it tries at most 20,000 orders;
    the counts keep a skip from hollowing the test out."""
    census = build_census(m, max_n)
    checked = 0
    for p in census:
        lit = literal_ranked_pairs_orders(p, limit=20000)
        if lit is None:
            continue
        assert lit == rp_put_rankings(p), p
        checked += 1
    assert (len(census), checked) == (profiles, simulated)


def test_strength_matrix_matches_path_enumeration(corpus):
    for p in corpus[:120]:
        s = strength_matrix(p)
        table = s.as_dict()
        assert len(table) == p.m * (p.m - 1)
        for a in p.candidates:
            for b in p.candidates:
                if a != b:
                    width = brute_path_strength(p, a, b)
                    assert s.strength(a, b) == table[a, b] == width, (p, a, b)


# ---------------------------------------------------------------------------
# structural laws


def test_condorcet_rules_pick_the_condorcet_winner(corpus):
    rules = (beatpath, split_cycle, smith, schwartz, rp_put,
             uc_gillies, uc_fishburn, alt_smith)
    seen = 0
    for p in corpus:
        cw = condorcet_winner(p)
        if cw is None:
            continue
        seen += 1
        for f in rules:
            assert f(p) == frozenset({cw}), (f.__name__, p)
        assert rp_i(p, 1) == {cw}
        assert rp_n(p) == {cw}
    assert seen >= 50


def test_containment_laws(corpus):
    for p in corpus:
        sm = smith(p)
        assert beatpath(p) <= split_cycle(p) <= sm
        assert schwartz(p) <= sm
        assert uc_fishburn(p) <= uc_gillies(p) <= sm
        assert alt_smith(p) <= sm
        assert rp_i(p, 1) <= rp_n(p) <= rp_put(p)
        assert stv_i(p, 1) <= stv(p)
        assert stv_i(p, p.n) <= stv(p)


def test_indexed_rules_are_decisive(corpus):
    for p in corpus[:200]:
        assert len(rp_i(p, 1)) == 1
        assert len(stv_i(p, 1)) == 1


def test_rankings_are_permutations(corpus):
    for p in corpus[:150]:
        assert sorted(rp_i_ranking(p, 1)) == sorted(p.candidates)
        assert sorted(stv_i_ranking(p, 1)) == sorted(p.candidates)
        for r in rp_put_rankings(p):
            assert sorted(r) == sorted(p.candidates)


def test_first_place_counts_sum_to_n(corpus):
    for p in corpus[:100]:
        assert sum(first_place_counts(p).values()) == p.n


def test_masked_entries_match_name_level_oracles(corpus, fixtures):
    """Each registered rule's masked entry, bound to a profile, elects on
    every field's mask what the rule elects on the restriction the oracles
    build, and on the mask of one representative per child of every tree
    node what it elects on the node's block summary: the winners do not
    depend on the candidates' names.  On the bundled profiles and a corpus
    slice the same holds for the ``^cc`` form of every id and for one
    ``^cc^cc`` id, whose entries walk each field's own clone intervals cut
    from the profile; on every field they also elect what the transform's
    name-level oracle elects on the restriction (for ``^cc^cc``, that
    oracle with the oracle itself as the inner rule)."""
    fixed = [fixtures[f"P{k}"] for k in range(1, 10)] + corpus[:24]
    for p in fixed + corpus[24:80]:
        code_of = {c: k for k, c in enumerate(p.candidates)}
        nodes = internal_nodes(build_pqtree(p))
        inner = {rid: rid for rid in rule_ids(p.n)}
        if p in fixed:
            inner |= {f"{rid}^cc": rid for rid in rule_ids(p.n)}
            inner["stv^cc^cc"] = lambda q: brute_cc_transform(q, "stv")[0]
        for rid, base in inner.items():
            f = resolve_rule(rid)
            on = f._on(p)
            for k in range(1, p.m + 1):
                for field in combinations(p.candidates, k):
                    won = {p.candidates[c] for c in _bits(on(sum(1 << code_of[c] for c in field)))}
                    restricted = brute_restrict(p, field)
                    assert won == f(restricted), (rid, p, field)
                    if base is not rid:  # a ^cc id
                        assert won == brute_cc_transform(restricted, base)[0], (rid, p, field)
            for node in nodes:
                block = {code_of[min(child.members)]: child.name for child in node.children}
                summary = brute_summarize(
                    brute_restrict(p, node.members), [child.members for child in node.children]
                )
                won = on(sum(1 << c for c in block))
                assert {block[c] for c in _bits(won)} == f(summary), (rid, p, node.members)