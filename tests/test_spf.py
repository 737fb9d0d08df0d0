"""Ranking rules (social preference functions) and ballot splicing."""

import gc
import hashlib
from itertools import combinations

import pytest
from conftest import ranking_ids
from oracles import brute_restrict

from clonelab.clones import EnumerationCapExceeded
from clonelab.profiles import load_fixture, parse_profile, restrict, serialize_profile
from clonelab.scf import alt_smith, beatpath, rp_put, rp_put_rankings, stv
from clonelab.spf import (
    _RULES,
    SPF_IDS,
    bp_star,
    neg,
    nnr_i_star,
    nr_i_star,
    nr_star,
    resolve_spf,
    rp_i_star,
    rp_n_star,
    rp_star,
    spf_to_scf,
    stv_i_star,
    stv_star,
    substitute,
)


def rset(rankings):
    return sorted(">".join(r) for r in rankings)


def test_neg_collapses_block_at_its_best_seat():
    assert neg(("a", "b", "c", "d"), {"b", "c"}, "z") == ("a", "z", "d")
    assert neg(("c", "a", "b"), {"b", "c"}, "z") == ("z", "a")
    with pytest.raises(ValueError):
        neg(("a", "b"), {"a"}, "b")          # z already on the ballot
    with pytest.raises(ValueError):
        neg(("a", "b"), {"c"}, "z")          # member not on the ballot
    with pytest.raises(ValueError):
        neg(("a", "b"), set(), "z")


def test_substitute_splices_inner_ranking():
    assert substitute(("a", "b"), "a", ("x", "y")) == ("x", "y", "b")
    assert substitute(("b", "a"), "a", ("x",)) == ("b", "x")
    with pytest.raises(ValueError):
        substitute(("a", "b"), "c", ("x",))
    with pytest.raises(ValueError):
        substitute(("a", "b"), "a", ("b",))  # name clash
    with pytest.raises(ValueError):
        substitute(("a", "b"), "a", ())


def test_spf_ids():
    assert set(SPF_IDS) == {
        "stv*", "bp*", "rp*", "rp_n*", "nr",
        "rp_i:<i>*", "stv_i:<i>", "nr_i:<i>", "nnr_i:<i>",
    }
    assert resolve_spf("stv*") is stv_star
    with pytest.raises(ValueError):
        resolve_spf("stv")  # winner-rule id, not a ranking rule
    with pytest.raises(ValueError):
        resolve_spf("rp_i:1")  # indexed ranked pairs needs the star
    with pytest.raises(ValueError):
        resolve_spf("nr_i:0")


def test_stv_star(fixtures):
    assert rset(stv_star(fixtures["P2"])) == ["a1>b>c>a2"]
    assert rset(stv_star(fixtures["P1"])) == ["d>b>a>c"]
    assert rset(stv_i_star(fixtures["P1"], 1)) == ["d>b>a>c"]


def test_bp_star(fixtures):
    # P8 is perfectly tied, so the strict widest-path relation is empty and
    # every ranking is a linear extension
    assert rset(bp_star(fixtures["P8"])) == [
        "a>b>c", "a>c>b", "b>a>c", "b>c>a", "c>a>b", "c>b>a",
    ]
    assert rset(bp_star(fixtures["P1"])) == ["b>c>a>d", "c>b>a>d"]


def test_bp_star_cap():
    with pytest.raises(EnumerationCapExceeded):
        bp_star(load_fixture("P8"), cap=3)
    assert len(bp_star(load_fixture("P8"), cap=6)) == 6


def test_rp_star_family(fixtures):
    p8 = fixtures["P8"]
    assert rp_star(p8) == rp_put_rankings(p8)
    assert len(rp_star(p8)) == 6
    assert rset(rp_n_star(p8)) == ["a>b>c", "c>b>a"]
    assert rset(rp_i_star(p8, 1)) == ["a>b>c"]
    assert rset(rp_i_star(p8, 2)) == ["c>b>a"]


def test_nested_runoff(fixtures):
    p9 = fixtures["P9"]
    assert rset(nr_star(p9)) == [
        "a1>c>b>a2",
        "a2>a1>c>b",
        "b>a1>a2>c",
        "b>a1>c>a2",
        "b>a2>a1>c",
        "c>b>a1>a2",
    ]
    assert rset(nr_star(restrict(p9, {"a1", "a2"}))) == ["a2>a1"]
    assert rset(nr_star(fixtures["P5"])) == ["a>b>c", "b>a>c", "b>c>a", "c>b>a"]


def test_nested_runoff_indexed(fixtures):
    p9 = fixtures["P9"]
    assert rset(nr_i_star(p9, 3)) == ["c>b>a1>a2"]
    assert rset(nnr_i_star(p9, 3)) == ["c>b>a2>a1"]
    assert rset(nr_i_star(p9, 1)) == ["b>a2>a1>c"]
    assert rset(nnr_i_star(p9, 1)) == ["b>a2>a1>c"]
    assert rset(nnr_i_star(restrict(p9, {"a1", "a2"}), 3)) == ["a2>a1"]


def test_indexed_rankers_are_decisive(corpus):
    for p in corpus[:120]:
        assert len(nr_i_star(p, 1)) == 1
        assert len(nnr_i_star(p, 1)) == 1
        assert len(stv_i_star(p, 1)) == 1
        assert len(rp_i_star(p, 1)) == 1


def test_rankings_are_permutations(corpus):
    for p in corpus[:100]:
        for spf in (stv_star, nr_star, rp_n_star):
            for r in spf(p):
                assert sorted(r) == sorted(p.candidates)


def test_tops_project_to_winner_rules(corpus):
    for p in corpus[:150]:
        assert frozenset(r[0] for r in stv_star(p)) == stv(p)
        assert frozenset(r[0] for r in bp_star(p)) == beatpath(p)


def test_spf_to_scf(fixtures):
    f = spf_to_scf(stv_star)
    assert f(fixtures["P2"]) == {"a1"}
    assert f.__name__ == "tops_of_stv_star"
    g = spf_to_scf("nr")
    assert g(fixtures["P9"]) == {"a1", "a2", "b", "c"}


def test_searches_leave_no_reference_cycles():
    """Each search keeps its memo in a dict its caller makes, so its memo and
    states go on return, not when the cyclic collector next runs."""
    text = serialize_profile(load_fixture("P9"))
    gc.collect()
    gc.disable()
    try:
        for rule in (stv, alt_smith, rp_put, stv_star, nr_star, rp_star, bp_star):
            rule(parse_profile(text))
            assert gc.collect() == 0, rule.__name__
    finally:
        gc.enable()


# Each registered ranking rule's public name and the first 16 hex digits of
# the SHA-256 of its docstring, as they read when every rule was a function
# of its profile: writing a rule as its masked entry keeps both.
_RANKING_DOCS = {
    "bp*": ("bp_star", "3f6da29fa3cbae9a"),
    "nr": ("nr_star", "b0a6d9f461fc1ea3"),
    "nnr_i": ("nnr_i_star", "8b8fc22f7a0b9fc3"),
    "nr_i": ("nr_i_star", "7db3f4b882b216f0"),
    "rp*": ("rp_star", "cc00ccd16daec57f"),
    "rp_i": ("rp_i_star", "cb077424991da32f"),
    "rp_n*": ("rp_n_star", "921adb4c017583a1"),
    "stv*": ("stv_star", "f60dbdf36d7e56eb"),
    "stv_i": ("stv_i_star", "be57c6428b1be5c0"),
}


def test_registered_ranking_rules_keep_their_names_docs_and_entries(fixtures):
    assert {rid.partition(":")[0] for rid in SPF_IDS} == _RANKING_DOCS.keys()
    p = fixtures["P1"]
    full = (1 << p.m) - 1
    for rid, (name, digest) in _RANKING_DOCS.items():
        fn, suffix = _RULES["spf", rid]
        assert (fn.__name__, fn.__qualname__) == (name, name)
        assert hashlib.sha256(fn.__doc__.encode()).hexdigest()[:16] == digest, rid
        args = () if suffix is None else (1,)
        orders = fn._on(p, *args)(full)
        assert {tuple(p.candidates[c] for c in order) for order in orders} == fn(p, *args), rid


def test_masked_entries_match_name_level_restrictions(corpus, fixtures):
    """Each registered ranking rule's masked entry, bound to a profile, ranks
    every field's mask as the rule ranks the restriction the oracles build:
    its code orders name exactly those rankings."""
    for p in [*fixtures.values(), *corpus[:80]]:
        code_of = {c: k for k, c in enumerate(p.candidates)}
        for rid in ranking_ids(p.n):
            f = resolve_spf(rid)
            on = f._on(p)
            for k in range(1, p.m + 1):
                for field in combinations(p.candidates, k):
                    orders = on(sum(1 << code_of[c] for c in field))
                    named = {tuple(p.candidates[c] for c in order) for order in orders}
                    assert named == f(brute_restrict(p, field)), (rid, p, field)
