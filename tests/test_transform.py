"""The clone-collapsing transform and two-level composition."""

import gc
import weakref

import pytest

from clonelab.clones import clone_structure
from clonelab import profiles
from clonelab.axioms import check_cc, check_ioc, check_isda_ca
from clonelab.games import GameSpec
from clonelab.profiles import add_voter, load_fixture, parse_profile, remove_candidates
from clonelab.pqtree import PQNode, build_pqtree, internal_nodes, serialize_tree
from clonelab.scf import pv, rp_i, stv, uc_gillies
from clonelab.transform import (
    RULE_IDS,
    _Elector,
    cc_transform,
    composition_product,
    resolve_rule,
    rule_label,
)

from conftest import build_game_profiles, count_calls, masks_asked, rule_ids
from oracles import brute_cc_transform


def K(*blocks):
    return [frozenset(b) for b in blocks]


def test_resolve_rule_ids(fixtures):
    assert set(RULE_IDS) == {
        "pv", "stv", "rp", "rp_n", "bp", "sc",
        "smith", "schwartz", "as", "ucg", "ucf",
        "rp_i:<i>", "stv_i:<i>",
    }
    p = fixtures["P8"]
    assert resolve_rule("rp_i:1")(p) == {"a"}
    assert resolve_rule("rp_i:2")(p) == {"c"}
    assert resolve_rule(pv) is pv  # callables pass through
    assert rule_label("stv^cc") == "stv^cc"
    assert rule_label(pv) == "pv"


@pytest.mark.parametrize("bad", ["", "plurality", "rp_i", "rp_i:x", "rp_i:0", "stv_i:-1", "xx^cc"])
def test_resolve_rule_rejects(bad):
    with pytest.raises(ValueError):
        resolve_rule(bad)


def test_composition_product_stv(fixtures):
    p2 = fixtures["P2"]
    dec = K({"a1", "a2"}, {"b"}, {"c"})
    # across blocks the pair keeps its majority, and head-to-head a2 beats a1
    assert composition_product("stv", p2, dec) == {"a2"}
    assert composition_product("as", p2, dec) == {"a2"}
    # but plain STV on the full profile elects a1
    assert stv(p2) == {"a1"}


def test_composition_product_more(fixtures):
    assert composition_product("bp", fixtures["P3"], K({"a1", "a2"}, {"b"}, {"c"})) == {"a1"}
    assert composition_product("sc", fixtures["P3"], K({"a1", "a2"}, {"b"}, {"c"})) == {"a1"}
    assert composition_product("bp", fixtures["P1"], K({"a"}, {"b", "c"}, {"d"})) == {"b"}
    assert composition_product("rp_n", fixtures["P5"], K({"a", "b"}, {"c"})) == {"a", "b", "c"}


def test_composition_with_trivial_decomposition_is_identity(fixtures):
    for name in ("P1", "P3", "P5"):
        p = fixtures[name]
        singletons = K(*({c} for c in p.candidates))
        for rid in ("pv", "stv", "bp", "ucg"):
            f = resolve_rule(rid)
            assert composition_product(rid, p, singletons) == f(p)


def test_composition_rejects_non_clone_blocks(fixtures):
    with pytest.raises(ValueError):
        composition_product("pv", fixtures["P1"], K({"a", "b"}, {"c"}, {"d"}))


def test_cc_transform_stv_clone_pair(fixtures):
    # the transform repairs STV's spoiler: collapsing the pair first makes
    # the head-to-head between the twins decide, electing a2
    assert cc_transform("stv", fixtures["P2"]) == {"a2"}


def test_cc_transform_pv(fixtures):
    p6 = fixtures["P6"]
    assert pv(p6) == {"a3"}
    assert cc_transform("pv", p6) == {"a1"}
    joined = add_voter(p6, ("a1", "b", "a2", "a3"))
    assert cc_transform("pv", joined) == {"a3"}


def test_cc_transform_bp(fixtures):
    p7 = fixtures["P7"]
    assert cc_transform("bp", p7) == {"a1", "a2"}
    assert cc_transform("bp", remove_candidates(p7, {"z"})) == {"a1"}


def test_trace_one_rule_call_per_visited_node(fixtures):
    for name in ("P1", "P2", "P6", "P7"):
        p = fixtures[name]
        trace = []
        calls = 0

        def counted(profile):
            nonlocal calls
            calls += 1
            return stv(profile)

        cc_transform(counted, p, trace=trace)
        assert calls == len(trace) == sum(rec["rule_calls"] for rec in trace)
        assert all(rec["kind"] in ("P", "Q") for rec in trace)
        assert len(trace) <= len(internal_nodes(build_pqtree(p)))
        # a registered rule: the records count the calls of its masked entry
        for rid in ("stv", "rp_i:1"):
            entry = resolve_rule(rid)._on(p).__code__  # shared by every binding
            masked = []
            _, made = count_calls((entry,), cc_transform, rid, p, masked)
            assert made[entry] == len(masked) == sum(rec["rule_calls"] for rec in masked)
            if rid == "stv":  # the walk of the counted callable above, record for record
                assert masked == trace


def test_trace_p2(fixtures):
    trace = []
    assert cc_transform("stv", fixtures["P2"], trace=trace) == {"a2"}
    assert [rec["kind"] for rec in trace] == ["P", "Q"]
    assert trace[0]["node"] == ["a1", "a2", "b", "c"]
    assert trace[0]["selected"] == ["a1+a2"]  # winning block, by name
    assert trace[1]["node"] == ["a1", "a2"]
    assert trace[1]["selected"] == ["a2"]


def test_q_node_second_block_walks_to_the_far_end():
    """On a tied string the rule orients the Q node by its first two blocks;
    picking the second sends the walk to the far end of the string."""
    p = parse_profile("1: a>b>c\n1: c>b>a\n")
    assert serialize_tree(build_pqtree(p)) == "a⊕b⊕c"
    trace = []
    assert cc_transform("rp_i:2", p, trace=trace) == {"c"}
    assert [(rec["kind"], rec["blocks"], rec["selected"]) for rec in trace] == [
        ("Q", ["a", "b"], ["b"])
    ]
    assert resolve_rule("rp_i:2^cc")(p) == {"c"}
    assert resolve_rule("rp_i:1^cc")(p) == {"a"}
    assert resolve_rule("pv^cc")(p) == {"a", "b", "c"}  # a tie descends into every block
    assert resolve_rule("rp_i:2^cc")(parse_profile("1: a>b>c>d\n1: d>c>b>a\n")) == {"d"}


def test_cc_transform_matches_tree_walk_oracle(corpus, fixtures):
    """Winners and trace, record for record, equal a walk of the tree read
    off the definition over name-level block summaries, for every registered
    rule.  The ties of pv and stv run a P node electing several children, in
    stored order, and a Q node keeping every child."""
    ran = set()
    for p in [fixtures[f"P{k}"] for k in range(1, 10)] + corpus[:120]:
        for rid in rule_ids(p.n):
            trace = []
            winners = cc_transform(rid, p, trace)
            assert (winners, trace) == brute_cc_transform(p, rid), (rid, p)
            for rec in trace:
                if len(rec["selected"]) > 1:
                    ran.add(rec["kind"])
    assert ran == {"P", "Q"}


def test_transform_builds_no_tree_and_pins_no_profile():
    """The walk splits intervals of the clone table: it neither builds nor
    looks up a PQ-tree, and keeps no reference to the profile.  Nor does a
    game of an opaque ^cc callable, whatever its fields."""
    text = "2: a>b1>b2>c>d\n1: d>c>b2>b1>a\n1: c>b1>b2>d>a\n"
    for rule in ("stv", "rp_i:1", "pv^cc", lambda q: stv(q)):
        p = parse_profile(text)
        before = build_pqtree.cache_info()
        won, made = count_calls((PQNode.__init__.__code__,), cc_transform, rule, p)
        assert won and made[PQNode.__init__.__code__] == 0, rule
        assert build_pqtree.cache_info() == before, rule
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None, rule
    p = parse_profile(text)
    before = build_pqtree.cache_info()
    GameSpec(p, lambda q: cc_transform("stv_i:1", q))
    assert build_pqtree.cache_info() == before


def test_cc_ids_are_masked_rules(corpus, fixtures):
    """Every id with ``^cc``, or ``^cc^cc``, is a masked rule named as the id,
    and the traced transform of a ``^cc`` id, whose masked entry the walk
    asks each node's representatives as a field of the profile, equals the
    tree walk over name-level summaries, record for record."""
    for rid in rule_ids(2):
        for suffix in ("^cc", "^cc^cc"):
            f = resolve_rule(rid + suffix)
            assert callable(f._on), rid + suffix
            assert f.__name__ == (rid + suffix).replace(":", "_").replace("^", "_")
    for p in [fixtures[f"P{k}"] for k in range(1, 10)] + corpus[:40]:
        for rid in ("pv^cc", "stv^cc", "rp_i:1^cc", "bp^cc"):
            trace = []
            assert (cc_transform(rid, p, trace), trace) == brute_cc_transform(p, rid), (rid, p)


def test_cc_ids_and_removals_derive_no_profile(fixtures):
    """A ``^cc`` id elects each field of a game, each node of a transform and
    each removal, block and summary of a check as a mask of the profile, and
    ``check_isda_ca`` elects each removal as a mask: none derives a profile
    or removes a candidate.  A plain callable is still shown one derived
    profile per field of a game, the whole field being the profile itself."""
    derive, remove = profiles._derive.__code__, remove_candidates.__code__
    runs = {
        "GameSpec rp_i:1^cc": lambda p: GameSpec(p, "rp_i:1^cc"),
        "cc_transform stv^cc": lambda p: cc_transform("stv^cc", p),
        "check_ioc pv^cc": lambda p: check_ioc("pv^cc", p),
        "check_cc stv^cc": lambda p: check_cc("stv^cc", p),
        "check_isda_ca stv": lambda p: check_isda_ca("stv", p),
        "check_isda stv": lambda p: check_isda_ca("stv", p, clone_aware=False),
    }
    for name in ("P1", "P2", "P6", "P7"):
        p = fixtures[name]
        for label, run in runs.items():
            _, made = count_calls((derive, remove), run, p)
            assert made == {derive: 0, remove: 0}, (name, label)
        shown = []

        def plain(profile):
            shown.append(profile)
            return rp_i(profile, 1)

        _, made = count_calls((derive,), GameSpec, p, plain)
        assert made[derive] == len(shown) - 1 == 2**p.m - 2, name
        assert shown.count(p) == 1 and shown[-1] is p, name


def test_cc_bindings_elect_each_inner_mask_once(fixtures):
    """A ``^cc`` id's binding keeps its inner rule's answers by mask, so a
    game's fields and a check's removals, blocks and summaries, whose walks
    show the same representatives again and again, call the inner masked
    entry once per distinct mask, and the totals are pinned."""
    games = build_game_profiles()
    for rid in ("rp_i:1", "stv_i:1"):
        for form in ("gamma", "lambda"):
            made = 0
            for p in games:
                entry = resolve_rule(rid)._on(p).__code__  # shared by every binding
                masks = masks_asked(entry, GameSpec, p, rid + "^cc", form)
                assert len(masks) == len(set(masks)), (rid, form, p)
                made += len(masks)
            assert made == 327, (rid, form)
    checks = (check_cc, check_ioc, check_isda_ca)
    pinned = {"rp_i:1": (17, 28, 14), "stv_i:1": (15, 26, 12), "pv": (21, 29, 15)}
    for rid, totals in pinned.items():
        made = dict.fromkeys(checks, 0)
        for p in (fixtures[f"P{k}"] for k in range(1, 10)):
            entry = resolve_rule(rid)._on(p).__code__
            for check in checks:
                masks = masks_asked(entry, check, rid + "^cc", p)
                assert len(masks) == len(set(masks)), (rid, check, p)
                made[check] += len(masks)
        assert tuple(made.values()) == totals, rid


def test_elector_keeps_restrictions_not_plain_summaries(fixtures):
    """The elector answers each mask once, an empty answer included; a plain
    callable's block summary, which names its blocks, is shown afresh every
    time and never answers for the restriction to its mask."""
    p = fixtures["P2"]
    full = (1 << p.m) - 1
    singletons = {c: [name] for c, name in enumerate(p.candidates)}
    shown = []

    def nobody(profile):
        shown.append(profile)
        return frozenset()

    elect = _Elector(nobody, p)
    assert [elect(full), elect(full)] == [0, 0]
    assert len(shown) == elect.calls == 1 and shown[0] is p
    assert [elect(full, singletons), elect(full, singletons), elect(full)] == [0, 0, 0]
    assert len(shown) == elect.calls == 3
    entry = resolve_rule("pv")._on(p).__code__  # a masked entry reads only the mask
    elect = _Elector("pv", p)
    _, made = count_calls((entry,), lambda: [elect(full, singletons), elect(full), elect(full)])
    assert made[entry] == elect.calls == 1


def test_clone_independent_rules_are_fixed_points(corpus):
    """Rules that already ignore cloning are untouched by the transform."""
    f1, f1cc = resolve_rule("rp_i:1"), resolve_rule("rp_i:1^cc")
    g, gcc = resolve_rule("ucg"), resolve_rule("ucg^cc")
    for p in corpus:
        assert f1cc(p) == f1(p), p
        assert gcc(p) == g(p), p


def test_transform_is_idempotent(corpus):
    for rid in ("pv", "stv", "bp"):
        once = resolve_rule(rid + "^cc")
        twice = resolve_rule(rid + "^cc^cc")
        for p in corpus[:150]:
            assert once(p) == twice(p), (rid, p)


def test_transform_is_identity_without_clones(corpus):
    rules = [resolve_rule(r) for r in ("pv", "stv", "bp", "sc", "smith", "ucg")]
    checked = 0
    for p in corpus:
        nontrivial = [
            k for k in clone_structure(p) if 1 < len(k) < p.m
        ]
        if nontrivial:
            continue
        checked += 1
        for f in rules:
            assert cc_transform(f, p) == f(p), (f, p)
    assert checked >= 100


def test_transform_winners_are_candidates(corpus):
    for p in corpus[:150]:
        w = cc_transform("stv", p)
        assert w and w <= frozenset(p.candidates)
