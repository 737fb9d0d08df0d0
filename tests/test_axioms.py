"""Axiom checkers: frozen verdicts on the bundled profiles, witness
re-verification, and the implication laws between the checks."""

import dataclasses
import random
from math import factorial, prod

import pytest
from conftest import count_calls, ranking_ids, rule_ids
from oracles import brute_cc_spf, brute_ioc_spf, brute_isda, brute_participation

from clonelab import profiles
from clonelab.axioms import (
    AxiomVerdict,
    _fresh_name,
    check_cc,
    check_cc_spf,
    check_condorcet,
    check_ioc,
    check_ioc_spf,
    check_isda_ca,
    check_monotonicity_ca,
    check_participation_ca,
    check_smith,
)
from clonelab.clones import clone_structure, enumerate_decompositions
from clonelab.pqtree import build_pqtree, internal_nodes
from clonelab.profiles import (
    Profile,
    add_voter,
    block_name,
    parse_profile,
    remove_candidates,
    replace_voter,
    restrict,
    summarize,
)
from clonelab.scf import smith
from clonelab.spf import resolve_spf
from clonelab.transform import resolve_rule


def test_verdict_is_frozen():
    v = AxiomVerdict(axiom="ioc", holds=True, witness=None, detail="")
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.holds = False
    assert not v.inconclusive
    assert AxiomVerdict(axiom="cc", holds=None, witness=None, detail="x").inconclusive


def test_ioc_spoiled_plurality(fixtures):
    v = check_ioc(resolve_rule("pv"), fixtures["P2"])
    assert v.holds is False
    w = v.witness
    # the witness replays: removing one twin flips the election
    p = fixtures["P2"]
    before = resolve_rule("pv")(p)
    after = resolve_rule("pv")(remove_candidates(p, {w["removed"]}))
    assert sorted(before) == w["winners"]
    assert sorted(after) == w["winners_without"]
    assert before != after or not (
        set(w["clone_set"]) & before
    )  # some biconditional clause broke


def test_ioc_transformed_rules_hold(fixtures):
    for rid in ("pv^cc", "stv^cc", "bp^cc"):
        f = resolve_rule(rid)
        for name in ("P1", "P2", "P3", "P6"):
            assert check_ioc(f, fixtures[name]).holds is True, (rid, name)


def test_ioc_vacuous_without_clones(corpus):
    f = resolve_rule("pv")
    checked = 0
    for p in corpus:
        if any(1 < len(k) < p.m for k in clone_structure(p)):
            continue
        assert check_ioc(f, p).holds is True
        checked += 1
        if checked >= 60:
            break
    assert checked >= 30


def test_cc_verdicts(fixtures):
    v = check_cc(resolve_rule("stv"), fixtures["P2"])
    assert v.holds is False
    assert v.witness["decomposition"] == [["a1", "a2"], ["b"], ["c"]]
    assert v.witness["winners"] == ["a1"]
    assert v.witness["composed"] == ["a2"]
    assert check_cc(resolve_rule("stv^cc"), fixtures["P2"]).holds is True


def test_cc_cap_is_inconclusive_not_pass():
    p = parse_profile("candidates: a,b,c,d,e\n1: a>b>c>d>e\n")
    v = check_cc(resolve_rule("pv^cc"), p, cap=3)
    assert v.holds is None
    assert v.inconclusive
    assert v.holds is not True  # a capped run never claims the axiom


def test_cc_implies_ioc(corpus):
    """Composing correctly forces clone independence — with the premise
    the implication actually needs.

    The independence check compares winners on p against winners on each
    single-removal profile p minus a, so the composition premise has to
    cover those reduced profiles too, not just p itself.  (It genuinely
    can't be weakened to "composes on p alone": plurality composes on
    3-voter profiles with a planted 3-clone whose removal unties a
    three-way race, yet fails independence there; one is pinned in the
    next test.)
    """
    f = resolve_rule("stv")
    g = resolve_rule("pv")
    seen_cc = 0
    for p in corpus[:120]:
        removable = sorted(
            {a for k in clone_structure(p) if 1 < len(k) < len(p.candidates)
             for a in k}
        )
        for rule in (f, g):
            if not check_cc(rule, p).holds:
                continue
            if not all(check_cc(rule, remove_candidates(p, {a})).holds
                       for a in removable):
                continue
            seen_cc += 1
            assert check_ioc(rule, p).holds is True, (rule, p)
    assert seen_cc >= 50


def test_cc_on_the_profile_alone_does_not_imply_ioc():
    """Plurality composes on this profile, but deleting the winning clone b3
    unties a three-way race among single first places and lets the outsider
    a in; on that removal profile plurality no longer composes."""
    p = parse_profile(
        "candidates: a,b1,b2,b3,c\n"
        "1: b3>b1>b2>a>c\n1: b3>b2>b1>c>a\n1: a>b1>b3>b2>c\n"
    )
    assert check_cc("pv", p).holds is True
    v = check_ioc("pv", p)
    assert v.holds is False
    assert v.witness["removed"] == "b3"
    assert v.witness["violation"] == "outsider"
    assert v.witness["outsider"] == "a"
    reduced = check_cc("pv", remove_candidates(p, {"b3"}))
    assert reduced.holds is False
    assert reduced.witness["decomposition"] == [["a"], ["b1", "b2"], ["c"]]


def test_condorcet_check():
    p = parse_profile(
        "candidates: a,b,c\n1: a>b>c\n1: a>c>b\n1: b>a>c\n1: b>c>a\n1: c>a>b\n"
    )
    v = check_condorcet(resolve_rule("pv"), p)
    assert v.holds is False
    assert v.witness == {"condorcet_winner": "a", "winners": ["a", "b"]}
    assert check_condorcet(resolve_rule("bp"), p).holds is True
    # no condorcet winner -> vacuously fine
    assert check_condorcet(resolve_rule("pv"), parse_profile(
        "candidates: a,b,c\n1: a>b>c\n1: b>c>a\n1: c>a>b\n")).holds is True


def test_smith_check():
    p = parse_profile(
        "candidates: a,b,c\n1: a>b>c\n1: a>c>b\n1: b>a>c\n1: b>c>a\n1: c>a>b\n"
    )
    v = check_smith(resolve_rule("pv"), p)
    assert v.holds is False
    assert v.witness["outside"] == ["b"]
    for rid in ("bp", "sc", "smith", "schwartz", "ucg"):
        assert check_smith(resolve_rule(rid), p).holds is True


def test_monotonicity(fixtures):
    p6 = fixtures["P6"]
    rule = resolve_rule("pv^cc")
    v = check_monotonicity_ca(rule, p6, clone_aware=False)
    assert v.holds is False
    w = v.witness
    assert w["voter"] == 9
    assert w["ballot"] == ["b", "a1", "a2", "a3"]
    assert w["promoted_ballot"] == ["a1", "b", "a2", "a3"]
    # replay: promoting the winner a1 on voter 9's ballot dethrones it
    assert rule(p6) == {"a1"}
    promoted = replace_voter(p6, 9, tuple(w["promoted_ballot"]))
    assert rule(promoted) == {"a3"}
    # the clone-aware reading skips promotions that rewire the clone sets
    assert check_monotonicity_ca(rule, p6).holds is True
    # plain plurality is monotone either way
    assert check_monotonicity_ca(resolve_rule("pv"), p6, clone_aware=False).holds is True


def test_participation(fixtures):
    p6 = fixtures["P6"]
    rule = resolve_rule("pv^cc")
    v = check_participation_ca(rule, p6, clone_aware=False)
    assert v.holds is False
    w = v.witness
    joined = add_voter(p6, tuple(w["ballot"]))
    before, after = rule(p6), rule(joined)
    assert sorted(before) == w["winners"]
    assert sorted(after) == w["new_winners"]
    ballot = tuple(w["ballot"])
    fav_b = min(before, key=ballot.index)
    fav_a = min(after, key=ballot.index)
    assert ballot.index(fav_b) < ballot.index(fav_a)  # joining genuinely hurt
    assert check_participation_ca(rule, p6).holds is True
    assert check_participation_ca(resolve_rule("pv"), p6, clone_aware=False).holds is True


def test_participation_pinned_ballot(fixtures):
    # the canonical no-show witness: an a1>b>a2>a3 voter joins and a1 loses
    p6 = fixtures["P6"]
    rule = resolve_rule("pv^cc")
    assert rule(p6) == {"a1"}
    assert rule(add_voter(p6, ("a1", "b", "a2", "a3"))) == {"a3"}


def test_participation_matches_brute(corpus, fixtures):
    """Both forms, for every registered rule, give the verdict and witness of
    trying all m! joining ballots on profiles built afresh, the clone-aware
    form keeping those whose joined profile has the same clone sets by
    subset enumeration."""
    failed = set()
    for p in [*fixtures.values(), *corpus[:24]]:
        for rid in [*rule_ids(p.n), "pv^cc"]:
            for clone_aware in (False, True):
                v = check_participation_ca(rid, p, clone_aware=clone_aware)
                want = brute_participation(p, rid, clone_aware)
                assert (v.holds, v.witness) == want, (rid, clone_aware, p)
                if not v.holds:
                    failed.add(clone_aware)
    assert failed == {False, True}  # witnesses of both forms were compared


def _planted_m8() -> Profile:
    """Fifteen voters over eight candidates: {x1, x2, x3} in any order,
    y1>y2>y3 forward or reversed, the blocks and a, b shuffled around them."""
    rng = random.Random(8)
    ballots = []
    for _ in range(15):
        x = rng.sample(["x1", "x2", "x3"], 3)
        y = ["y1", "y2", "y3"] if rng.random() < 0.5 else ["y3", "y2", "y1"]
        top = rng.sample(["a", "b", "x", "y"], 4)
        ballots.append(tuple(c for t in top for c in {"x": x, "y": y}.get(t, [t])))
    return Profile(candidates=tuple(sorted(ballots[0])), groups=tuple((b, 1) for b in ballots))


def test_clone_aware_participation_tries_only_the_tree_frontiers(monkeypatch):
    """At m=8 the clone-aware check calls the rule once on the profile and
    once per ranking that keeps every clone set whole, the PQ-tree's
    frontiers (k! orders at a P node of k children, two at a Q node), not
    all 8!, and computes no clone structure but the profile's."""
    p = _planted_m8()
    tree = build_pqtree(p)
    frontiers = prod(
        factorial(len(node.children)) if node.kind == "P" else 2 for node in internal_nodes(tree)
    )
    structures = []

    def counted_structure(profile):
        structures.append(profile)
        return clone_structure(profile)

    monkeypatch.setattr("clonelab.axioms.clone_structure", counted_structure)
    pv = resolve_rule("pv")
    calls = []

    def counted(profile):
        calls.append(profile)
        return pv(profile)

    assert check_participation_ca(counted, p).holds is True
    assert len(calls) == 1 + frontiers
    assert len({q.groups[-1][0] for q in calls[1:]}) == frontiers  # each ballot once
    assert 2 < frontiers < factorial(8) // 100
    assert structures == [p]


def test_cc_elects_each_block_once():
    """On a string profile every interval is a clone set, so decompositions
    share blocks; the check calls the rule once on the profile, which is
    also the one-block decomposition's block, once per decomposition's
    summary, and once per other distinct block some summary elected.  A
    plain callable is shown one derived profile per summary and per other
    distinct elected block, except where that would copy the profile: here,
    where voter 1 ranks the candidates in their listed order, the
    all-singletons summary is the profile itself.  A registered rule is
    asked the same questions as masks, of its bound masked entry, which
    reads a summary as the field of its blocks' representatives: one call
    per distinct mask, so one on the full mask, and no profile is derived."""
    p = parse_profile("3: a>b>c>d>e>f\n2: f>e>d>c>b>a\n")
    pv = resolve_rule("pv")
    decompositions = enumerate_decompositions(p)
    elected = {
        frozenset(b)
        for blocks in decompositions
        for b in blocks
        if block_name(b) in pv(summarize(p, blocks))
    }
    calls = []

    def counted(profile):
        calls.append(profile)
        return pv(profile)

    derive = profiles._derive.__code__
    verdict, made = count_calls((derive,), check_cc, counted, p)
    assert verdict.holds is True
    assert len(calls) == len(decompositions) + len(elected)
    assert sum(q is p for q in calls) == 2  # the profile (its one block too), its singletons
    assert made[derive] == len(decompositions) + len(elected) - 2
    assert len(elected) < sum(len(blocks) for blocks in decompositions)

    def mask(members):
        return sum(1 << p.candidates.index(c) for c in members)

    # a summary's representatives: the member of each block voter 1 ranks first
    asked = {mask(min(b) for b in blocks) for blocks in decompositions} | set(map(mask, elected))
    assert mask(p.candidates) in asked and len(asked) < len(decompositions) + len(elected)
    entry = pv._on(p).__code__  # shared by every binding
    verdict, made = count_calls((entry, derive), check_cc, "pv", p)
    assert verdict.holds is True
    assert made == {entry: len(asked), derive: 0}  # every mask asked, none twice


def test_cc_and_ioc_elect_through_masks_of_the_profile(fixtures):
    """Both checks elect every subset as a mask of the profile's own core:
    neither calls restrict, summarize or remove_candidates, for a registered
    rule or a plain callable, and a plain callable is shown the profile
    itself, not a copy, to elect it whole."""
    helpers = (restrict.__code__, summarize.__code__, remove_candidates.__code__)
    stv = resolve_rule("stv")
    for name in ("P1", "P2", "P6", "P7"):
        p = fixtures[name]
        shown = []

        def plain(profile):
            shown.append(profile)
            return stv(profile)

        for check in (check_cc, check_ioc):
            for rule in ("stv", "rp_i:1", plain):
                shown.clear()
                _, made = count_calls(helpers, check, rule, p)
                assert made == dict.fromkeys(helpers, 0), (name, check, rule)
            assert shown[0] is p
            assert all(q is p or q != p for q in shown), (name, check)  # no copy of p


def test_isda(fixtures):
    p7 = fixtures["P7"]
    rule = resolve_rule("bp^cc")
    v = check_isda_ca(rule, p7, clone_aware=False)
    assert v.holds is False
    assert v.witness["removed"] == "z"
    assert v.witness["winners"] == ["a1", "a2"]
    assert v.witness["winners_without"] == ["a1"]
    assert "z" not in smith(p7)
    # clone-aware reading: removing z rewires the clone structure, so the
    # deletion is out of scope and the check holds vacuously
    assert check_isda_ca(rule, p7).holds is True


def test_isda_matches_brute(corpus, fixtures):
    """Both ISDA checks, which elect each deletion as a mask of the profile
    and count its clone sets on the profile's rankings cut to it, equal ISDA
    by its definition over deleted profiles, verdict and witness, for the
    registered rules, their transforms and a callable reading voter 1's
    ballot; on these profiles each form both fails and skips or passes."""
    def last_of_first(profile):
        return frozenset({profile.voter_ranking(1)[-1]})

    seen = set()
    for p in [fixtures[f"P{k}"] for k in range(1, 10)] + corpus[:60]:
        rules = [*rule_ids(p.n), *(f"{rid}^cc" for rid in rule_ids(p.n)), last_of_first]
        for rule in rules:
            for clone_aware in (True, False):
                v = check_isda_ca(rule, p, clone_aware=clone_aware)
                assert (v.holds, v.witness) == brute_isda(p, rule, clone_aware), (rule, p)
                seen.add((clone_aware, v.holds))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_ioc_spf(fixtures):
    for sid in ("rp_i:1*", "stv*", "bp*"):
        assert check_ioc_spf(resolve_spf(sid), fixtures["P2"]).holds is True
    assert check_ioc_spf(resolve_spf("bp*"), fixtures["P8"]).holds is True
    # z is a candidate, so the collapsed block gets the fresh name z0
    p = parse_profile("candidates: a,b,c,d,z\n1: a>z>b>d>c\n1: c>a>z>d>b\n1: d>b>c>z>a\n")
    verdict = check_ioc_spf(resolve_spf("rp*"), p)
    assert verdict.holds is False
    w = verdict.witness
    assert (w["clone_set"], w["removed"]) == (["a", "z"], "a")
    assert len(w["collapsed"]) == 7 and len(w["collapsed_without"]) == 5
    assert all("z0" in r.split(">") for r in w["collapsed"] + w["collapsed_without"])
    assert set(w["collapsed_without"]) < set(w["collapsed"])


def test_ioc_spf_past_the_cap_is_inconclusive():
    """bp* on a ranking and its reverse: every margin ties, so all 8!
    rankings are linearisations, past bp*'s default cap of 10,000."""
    names = [f"c{k}" for k in range(8)]
    p = parse_profile(f"1: {'>'.join(names)}\n1: {'>'.join(reversed(names))}\n")
    verdict = check_ioc_spf(resolve_spf("bp*"), p)
    assert verdict.holds is None
    assert verdict.detail == "more than 10000 rankings; raise the cap to enumerate"


def test_fresh_name_skips_taken_names():
    assert _fresh_name(parse_profile("1: a>b\n")) == "z"
    assert _fresh_name(parse_profile("1: z>a\n")) == "z0"
    assert _fresh_name(parse_profile("1: z0>a>z\n")) == "z1"


def test_ioc_checks_remove_each_candidate_once():
    """On a string profile every interval is a clone set, so the clone sets
    nest; each check still calls the rule once on the profile and once per
    removed candidate."""
    p = parse_profile("3: a>b>c>d>e>f\n2: f>e>d>c>b>a\n")
    for check, rule in ((check_ioc, resolve_rule("pv")), (check_ioc_spf, resolve_spf("stv*"))):
        calls = []

        def counted(profile, rule=rule):
            calls.append(profile.candidates)
            return rule(profile)

        assert check(counted, p).holds is True
        assert len(calls) == len(set(calls)) == 7, check


def test_cc_spf_ranks_each_block_once():
    """On a string profile every interval is a clone set, so the 32 tilings
    share their blocks; the check ranks the profile once, each summary once
    and each of the 21 blocks once, the one-block decomposition's block being
    the profile, so 20 blocks besides it."""
    p = parse_profile("3: a>b>c>d>e>f\n2: f>e>d>c>b>a\n")
    decompositions = enumerate_decompositions(p)
    blocks = {b for d in decompositions for b in d}
    assert (len(decompositions), len(blocks)) == (32, 21)
    for rid in ("rp*", "nr"):
        rule, calls = resolve_spf(rid), []

        def counted(profile, rule=rule):
            calls.append(profile)
            return rule(profile)

        assert check_cc_spf(counted, p).holds is True
        assert len(calls) == 1 + 32 + 20, rid


def test_plain_checks_compute_no_clone_structure(fixtures, monkeypatch):
    calls = []

    def counted(profile):
        calls.append(profile)
        return clone_structure(profile)

    monkeypatch.setattr("clonelab.axioms.clone_structure", counted)
    rule, p = resolve_rule("pv"), fixtures["P6"]
    for check in (check_monotonicity_ca, check_participation_ca, check_isda_ca):
        check(rule, p, clone_aware=False)
        assert calls == [], check
        check(rule, p)
        assert calls, check
        calls.clear()


def test_cc_spf(fixtures):
    p8 = fixtures["P8"]
    v = check_cc_spf(resolve_spf("bp*"), p8)
    assert v.holds is False
    assert v.witness["decomposition"] == [["a"], ["b", "c"]]
    assert v.witness["rankings"] == [
        "a>b>c", "a>c>b", "b>a>c", "b>c>a", "c>a>b", "c>b>a",
    ]
    assert v.witness["composed"] == ["a>b>c", "a>c>b", "b>c>a", "c>b>a"]
    assert check_cc_spf(resolve_spf("rp_i:1*"), p8).holds is True
    assert check_cc_spf(resolve_spf("nnr_i:1"), p8).holds is True


def test_cc_spf_cap_is_inconclusive():
    p = parse_profile("candidates: a,b,c,d,e\n1: a>b>c>d>e\n")
    v = check_cc_spf(resolve_spf("rp_i:1*"), p, cap=3)
    assert v.holds is None and v.inconclusive


def _stv_star_callable(profile):
    """``stv*`` as a plain callable, with no masked entry."""
    return resolve_spf("stv*")(profile)


def _listed(profile):
    """The candidates in their listed order, and by name from last to
    first: a plain callable that reads names and the listing order."""
    return frozenset({profile.candidates, tuple(sorted(profile.candidates, reverse=True))})


def test_ranking_checks_match_name_level_oracles(fixtures, corpus):
    """Both ranking checks, which elect every removal, block and summary as a
    mask of the profile and collapse clone sets on code orders, give the
    verdict, witness and detail of the checks that built each of those as a
    profile (the oracles), for every registered ranking id and two plain
    callables; on the bundled profiles also under a cap of 2 decompositions.
    Each check both holds and fails here."""
    seen = set()
    for p in [*fixtures.values(), *corpus[:60]]:
        for rule in [*ranking_ids(p.n), _stv_star_callable, _listed]:
            v = check_ioc_spf(rule, p)
            assert (v.holds, v.witness, v.detail) == brute_ioc_spf(p, rule), (rule, p)
            seen.add(("ioc_spf", v.holds))
            for cap in (10**6, 2) if p in fixtures.values() else (10**6,):
                v = check_cc_spf(rule, p, cap=cap)
                assert (v.holds, v.witness, v.detail) == brute_cc_spf(p, rule, cap), (rule, p)
                seen.add(("cc_spf", v.holds))
    assert seen == {(c, h) for c in ("ioc_spf", "cc_spf") for h in (True, False, None)} - {
        ("ioc_spf", None)
    }


def test_ranking_checks_elect_through_masks_of_the_profile(fixtures):
    """Neither ranking check builds a profile for a registered ranking id: no
    call of restrict, summarize, remove_candidates or the derivation under
    them.  A plain callable is shown the profile itself and then the
    profiles the name-level oracles build, no others."""
    helpers = (restrict, summarize, remove_candidates, profiles._derive)
    codes = tuple(f.__code__ for f in helpers)
    for name in ("P1", "P2", "P6", "P7", "P8"):
        p = fixtures[name]
        for check, oracle in ((check_ioc_spf, brute_ioc_spf), (check_cc_spf, brute_cc_spf)):
            for rid in ranking_ids(p.n):
                _, made = count_calls(codes, check, rid, p)
                assert made == dict.fromkeys(codes, 0), (name, check, rid)
            shown, built = [], []
            check(lambda q: shown.append(q) or _stv_star_callable(q), p)
            oracle(p, lambda q: built.append(q) or _stv_star_callable(q))
            assert shown[0] is p and set(shown) == set(built), (name, check)
