"""Strategic candidacy: one-shot and staged Run/Drop games."""

import random

import pytest

from clonelab import profiles
from clonelab.clones import clone_structure
from clonelab.games import (
    DROP,
    RUN,
    GameSpec,
    IndecisiveRuleError,
    PlayResult,
    gamma_dominant_run,
    gamma_obviously_dominant_run,
    lambda_obviously_dominant_run,
    lambda_play,
    utility,
)
from clonelab.pqtree import PQNode, build_pqtree, internal_nodes, ordered_child
from clonelab.profiles import Profile, restrict
from clonelab.scf import first_place_counts
from clonelab.transform import RULE_IDS, cc_transform, resolve_rule

from conftest import build_game_profiles, count_calls
from oracles import brute_game_verdicts


def test_game_spec_requires_decisive_rule(fixtures):
    """Both forms refuse an indecisive rule when the game is built, before
    any play is asked for."""
    for form in ("gamma", "lambda"):
        with pytest.raises(IndecisiveRuleError):
            GameSpec(profile=fixtures["P5"], rule="pv", form=form)
        with pytest.raises(IndecisiveRuleError):
            GameSpec(profile=fixtures["P6"], rule="stv", form=form)
    with pytest.raises(ValueError):
        GameSpec(profile=fixtures["P1"], rule="stv", form="sequential")
    spec = GameSpec(profile=fixtures["P1"], rule="stv", form="gamma")
    assert spec.rule_name == "stv"


def test_staged_play_walks_a_q_node_from_its_far_end():
    """a>b>c against c>b>a: every margin ties, so the root is one Q node
    read in stored order, a first.  When the rule elects c from {a, c}, that
    end is designated and the walk starts at c, asking no one else."""
    p = profiles.parse_profile("1: a>b>c\n1: c>b>a\n")
    everyone = {c: RUN for c in p.candidates}
    for rule, winner in (("rp_i:2", "c"), ("stv_i:2", "c"), ("rp_i:1", "a")):
        played = lambda_play(GameSpec(profile=p, rule=rule, form="lambda"), everyone)
        assert played == PlayResult(winner=winner, asked=frozenset({winner})), rule


def test_game_analyses_reject_unknown_candidates(fixtures):
    game = GameSpec(profile=fixtures["P2"], rule="rp_i:1", form="gamma")
    for analysis in (gamma_dominant_run, gamma_obviously_dominant_run, lambda_obviously_dominant_run):
        with pytest.raises(ValueError, match="zz"):
            analysis(game, "zz")


def test_utility_schedule(fixtures):
    game = GameSpec(profile=fixtures["P1"], rule="stv", form="gamma")
    # full field: d wins and b sits at clone distance 3 from d
    assert utility(game, "b", set("abcd")) == 1
    # without d, b wins outright: distance 0, worth m
    assert utility(game, "b", set("abc")) == 4
    # spectating while the neighbour c wins is worth m - 1
    assert utility(game, "b", {"c"}) == 3
    # an empty election is worth nothing
    assert utility(game, "b", set()) == 0
    with pytest.raises(ValueError):
        utility(game, "z", {"b"})
    with pytest.raises(ValueError, match="zzz"):
        utility(game, "b", {"b", "zzz"})


def test_gamma_dominance_is_not_obviousness(fixtures):
    game = GameSpec(profile=fixtures["P1"], rule="stv", form="gamma")
    held, witness = gamma_dominant_run(game, "b")
    assert held and witness is None
    held, witness = gamma_obviously_dominant_run(game, "b")
    assert not held
    assert witness == {
        "candidate": "b",
        "worst_run_utility": 1,
        "worst_run_others": ["d"],
        "best_drop_utility": 3,
        "best_drop_others": ["c"],
    }


def test_gamma_plurality_spoiler(fixtures):
    game = GameSpec(profile=fixtures["P2"], rule="pv", form="gamma")
    held, witness = gamma_dominant_run(game, "a2")
    assert not held
    assert witness == {
        "candidate": "a2",
        "others_running": ["a1", "b", "c"],
        "run_utility": 1,
        "drop_utility": 3,
    }
    # replay the witness
    assert utility(game, "a2", {"a1", "a2", "b", "c"}) == 1
    assert utility(game, "a2", {"a1", "b", "c"}) == 3


def test_gamma_obviousness_contrast_on_clone_pair(fixtures):
    # with a clone-independent rule Run is dominant for everyone, but in the
    # one-shot game it is obviously dominant only for the non-clones
    game = GameSpec(profile=fixtures["P2"], rule="rp_i:1", form="gamma")
    verdicts = {c: gamma_obviously_dominant_run(game, c)[0] for c in game.profile.candidates}
    assert verdicts == {"a1": False, "a2": False, "b": True, "c": True}
    for c in game.profile.candidates:
        assert gamma_dominant_run(game, c)[0] is True


def test_lambda_play_walks_the_tree(fixtures):
    p2 = fixtures["P2"]
    game = GameSpec(profile=p2, rule="stv_i:1", form="lambda")
    res = lambda_play(game, {c: RUN for c in p2.candidates})
    assert res == PlayResult(winner="a2", asked=frozenset({"a2", "b", "c"}))
    # a1 was never asked: its twin already won the seat the walk reached

    game = GameSpec(profile=p2, rule="rp_i:1", form="lambda")
    actions = {c: RUN for c in p2.candidates}
    actions["a2"] = DROP
    res = lambda_play(game, actions)
    assert res.winner == "a1"
    assert res.asked == frozenset(p2.candidates)


def test_lambda_play_empty_field(fixtures):
    p2 = fixtures["P2"]
    game = GameSpec(profile=p2, rule="rp_i:1", form="lambda")
    res = lambda_play(game, {c: DROP for c in p2.candidates})
    assert res.winner is None
    assert res.asked == frozenset(p2.candidates)


def test_lambda_play_validates_action_map(fixtures):
    game = GameSpec(profile=fixtures["P2"], rule="rp_i:1", form="lambda")
    with pytest.raises(ValueError):
        lambda_play(game, {"a1": RUN})  # incomplete
    bad = {c: RUN for c in fixtures["P2"].candidates}
    bad["a1"] = "run"
    with pytest.raises(ValueError):
        lambda_play(game, bad)
    everyone = {c: RUN for c in fixtures["P2"].candidates}
    lambda_play(game, everyone)  # a play already on record is still validated
    with pytest.raises(ValueError, match="zzz"):
        lambda_play(game, {**everyone, "zzz": RUN})


def test_lambda_matches_transform_on_surviving_field(corpus):
    """When every non-trivial clone set keeps at least one runner, the
    staged walk elects exactly the transform's winner on the runners."""
    rng = random.Random(5)
    checked = 0
    for p in corpus[:80]:
        nontrivial = [k for k in clone_structure(p) if 1 < len(k) < p.m]
        for rid in ("rp_i:1", "stv_i:1"):
            game = GameSpec(profile=p, rule=rid, form="lambda")
            trials = [{c: RUN for c in p.candidates}]
            for _ in range(4):
                acts = {c: rng.choice([RUN, DROP]) for c in p.candidates}
                runners = {c for c, a in acts.items() if a == RUN}
                if runners and all(k & runners for k in nontrivial):
                    trials.append(acts)
            for acts in trials:
                runners = frozenset(c for c, a in acts.items() if a == RUN)
                res = lambda_play(game, acts)
                (expected,) = cc_transform(rid, restrict(p, runners))
                assert res.winner == expected, (p, rid, acts)
                checked += 1
    assert checked >= 300


def test_run_is_dominant_for_clone_independent_rules(corpus):
    for p in corpus[:60]:
        for rid in ("rp_i:1", "stv_i:1"):
            game = GameSpec(profile=p, rule=rid, form="gamma")
            staged = GameSpec(profile=p, rule=rid, form="lambda")
            for a in p.candidates:
                held, witness = gamma_dominant_run(game, a)
                assert held, (rid, p, a, witness)
                held, witness = lambda_obviously_dominant_run(staged, a)
                assert held, (rid, p, a, witness)


def _assert_games_match_oracle(cases):
    """Both forms of each ``(profile, rule)`` game give the verdicts and
    witnesses of :func:`oracles.brute_game_verdicts`."""
    for p, rule in cases:
        gamma = GameSpec(profile=p, rule=rule, form="gamma")
        staged = GameSpec(profile=p, rule=rule, form="lambda")
        got_gamma = {a: (gamma_dominant_run(gamma, a), gamma_obviously_dominant_run(gamma, a))
                     for a in p.candidates}
        got_staged = {a: lambda_obviously_dominant_run(staged, a) for a in p.candidates}
        assert got_gamma == brute_game_verdicts(p, rule, "gamma"), (rule, p)
        assert got_staged == brute_game_verdicts(p, rule, "lambda"), (rule, p)


def test_games_match_unmemoized_oracle(corpus, fixtures):
    """Both forms give the verdicts and witnesses of a replay that elects
    every field and walks every play afresh, on small profiles and at the
    candidacy benchmark's largest size (m=7, n=15)."""
    small = corpus[:60] + [fixtures[f"P{k}"] for k in range(1, 10)]
    cases = [(p, rid) for p in small for rid in ("rp_i:1", "stv_i:1", "rp_i:1^cc")]
    cases += [(p, rid) for p in build_game_profiles() for rid in ("rp_i:1^cc", "stv_i:1^cc")]
    _assert_games_match_oracle(cases)


def voter_one_last(profile):
    """Voter 1's last choice: decisive and neutral, and not registered."""
    return frozenset(profile.groups[0][0][-1:])


def plurality_voter_one_breaks_ties(profile):
    """The most first places, ties broken by voter 1's ranking."""
    counts = first_place_counts(profile)
    top = max(counts.values())
    return frozenset({next(c for c in profile.groups[0][0] if counts[c] == top)})


def test_games_of_plain_callables_match_unmemoized_oracle(corpus):
    """Games of decisive callables without a masked entry elect every field
    through the elector's adapter, and match the oracle, which shows them
    name-level restrictions and block summaries.

    Some one-shot verdicts here fail, but no staged one does, so the witness
    branch of :func:`lambda_obviously_dominant_run` stays unreached.  A
    search over 700 random profiles of two to five candidates, about half
    with a planted clone set, found no staged failure for four unregistered
    decisive callables (voter 1's first or last choice, and the most first
    places or fewest last places with voter 1 breaking ties), nor for
    rp_i:1, rp_i:2 and stv_i:1."""
    plain = (voter_one_last, plurality_voter_one_breaks_ties)
    _assert_games_match_oracle(
        [(p, rule) for p in [*build_game_profiles(), *corpus[:40]] for rule in plain]
    )


def test_games_call_the_rule_once_per_field_and_decision(fixtures):
    calls = []

    def counting(rid):
        base = resolve_rule(rid)

        def counted(profile):
            calls.append(profile)
            return base(profile)

        return counted

    p2 = fixtures["P2"]
    game = GameSpec(profile=p2, rule=counting("rp_i:1"), form="gamma")
    assert len(calls) == 2**p2.m - 1 == 15
    for a in p2.candidates:
        gamma_dominant_run(game, a)
        gamma_obviously_dominant_run(game, a)
    assert len(calls) == 15  # every field was elected while building the game

    # A staged decision reads the field of the shown blocks' representatives,
    # elected while the game was built, merged blocks (P2's a1+a2) included,
    # so the staged analysis calls the rule no more.
    for rid in ("rp_i:1", "stv_i:1"):
        for p in (fixtures["P7"], p2):
            calls.clear()
            staged = GameSpec(profile=p, rule=counting(rid), form="lambda")
            built = len(calls)
            assert built == 2**p.m - 1
            first = [lambda_obviously_dominant_run(staged, a) for a in p.candidates]
            assert len(calls) == built, (rid, p)
            assert [lambda_obviously_dominant_run(staged, a) for a in p.candidates] == first
            assert len(calls) == built


def test_registered_games_run_the_masked_entry_once_per_field(fixtures):
    """A registered rule elects each field of a game with one call of its
    masked entry on the profile's core, deriving no profile; the analyses of
    either form call it no more, and the transform derives no summary."""
    derive = profiles._derive.__code__

    def analyse(game):
        for a in game.profile.candidates:
            if game.form == "gamma":
                gamma_dominant_run(game, a)
                gamma_obviously_dominant_run(game, a)
            else:
                lambda_obviously_dominant_run(game, a)

    for rid in ("rp_i:1", "stv_i:1"):
        for p in (fixtures["P2"], fixtures["P7"]):
            entry = resolve_rule(rid)._on(p).__code__  # shared by every binding
            for form in ("gamma", "lambda"):
                game, built = count_calls((entry, derive), GameSpec, p, rid, form)
                assert built == {entry: 2**p.m - 1, derive: 0}, (rid, p, form)
                _, analysed = count_calls((entry, derive), analyse, game)
                assert analysed == {entry: 0, derive: 0}, (rid, p, form)
    _, transformed = count_calls((derive,), cc_transform, "rp_i:1", fixtures["P2"])
    assert transformed == {derive: 0}


def test_games_build_no_tree(fixtures):
    """A game walks the profile's table of clone intervals: building it and
    analysing it neither build nor look up a PQ-tree, in either form."""
    node = PQNode.__init__.__code__

    def build_and_analyse(p, rid, form):
        game = GameSpec(p, rid, form)
        for a in p.candidates:
            if form == "gamma":
                gamma_obviously_dominant_run(game, a)
            else:
                lambda_obviously_dominant_run(game, a)

    for p in (fixtures[f"P{k}"] for k in range(1, 10)):
        for rid in ("rp_i:1", "stv_i:1", "stv_i:1^cc"):
            for form in ("gamma", "lambda"):
                before = build_pqtree.cache_info()
                _, made = count_calls((node,), build_and_analyse, p, rid, form)
                assert made[node] == 0, (p, rid, form)
                assert build_pqtree.cache_info() == before, (p, rid, form)


def test_game_nodes_are_the_tree_in_reading_order(corpus, fixtures):
    """The staged game keeps every internal node of the profile's PQ-tree as
    an interval of voter 1's ranking, with its kind and its children: a Q
    node's in majority reading order, a P node's in any order.  A neutral
    rule cannot tell a Q node's reading order from its mirror, since every
    two children show it the same two-candidate profile up to renaming, so
    no verdict pins that order; this does."""
    for p in [*fixtures.values(), *corpus]:
        place = {c: k for k, c in enumerate(p.groups[0][0])}

        def span(node):
            places = [place[c] for c in node.members]
            return min(places), max(places) + 1

        want = {}
        for node in internal_nodes(build_pqtree(p)):
            kids = sorted(map(span, node.children))
            if node.kind == "Q":
                kids = [span(ordered_child(node, k)) for k in range(1, len(kids) + 1)]
            want[span(node)] = (node.kind, kids)
        got = {}
        for ij, (kind, kids) in GameSpec(p, "rp_i:1", "lambda")._nodes.items():
            got[ij] = (kind, kids if kind == "Q" else sorted(kids))
        assert got == want, p


def _rule_ids(n):
    """Every registered rule id and its ^cc form, indexed ids at voters 1
    and 2 (voter 2 only where there is one)."""
    for rid in RULE_IDS:
        for plain in [rid.replace("<i>", str(i)) for i in (1, 2)[:n]] if "<i>" in rid else [rid]:
            yield plain
            yield f"{plain}^cc"


def test_rules_are_neutral_in_listing_order(corpus, fixtures):
    """The staged game reads a decision among single candidates from the
    field with those names, whose candidates are listed in another order:
    relisting the candidates, with the same ballots, changes no winner."""
    rng = random.Random(14)
    for p in [fixtures[f"P{k}"] for k in range(1, 10)] + corpus:
        order = list(p.candidates)
        rng.shuffle(order)
        relisted = Profile(candidates=tuple(order), groups=p.groups)
        for rid in _rule_ids(p.n):
            f = resolve_rule(rid)
            assert f(relisted) == f(p), (rid, p, order)
