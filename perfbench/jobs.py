"""Running one job through clonelab's public API, and checking its answer.

``execute`` is the timed part.  ``canonical`` and ``check`` run after the
clock stops: the first gives the answer in the form the expected-answers
record stores, the second tests invariants that hold on every seed and
replays the witness of every ``fails`` verdict.
"""

from __future__ import annotations

import copy
import hashlib
import json
from functools import partial
from itertools import chain, product

from clonelab.axioms import (
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
from clonelab.clones import clone_metric
from clonelab.games import (
    DROP,
    RUN,
    GameSpec,
    gamma_dominant_run,
    gamma_obviously_dominant_run,
    lambda_obviously_dominant_run,
    lambda_play,
    utility,
)
from clonelab.profiles import (
    add_voter,
    block_name,
    parse_profile,
    remove_candidates,
    replace_voter,
    restrict,
    summarize,
)
from clonelab.scf import condorcet_winner, smith
from clonelab.spf import neg, resolve_spf
from clonelab.transform import cc_transform, composition_product, resolve_rule
from spans import NullTracer

AXIOMS = {
    "ioc": check_ioc,
    "cc": check_cc,
    "condorcet": check_condorcet,
    "smith": check_smith,
    "mono": partial(check_monotonicity_ca, clone_aware=False),
    "mono_ca": check_monotonicity_ca,
    "isda": partial(check_isda_ca, clone_aware=False),
    "isda_ca": check_isda_ca,
    "part": partial(check_participation_ca, clone_aware=False),
    "part_ca": check_participation_ca,
    "ioc_spf": check_ioc_spf,
    "cc_spf": check_cc_spf,
}
RANKING_AXIOMS = ("ioc_spf", "cc_spf")


def span_name(layer: str, rule_id: str) -> str:
    """Metric-safe span name of a base rule id: ``rp_i:1*`` -> ``spf.rp_i_star``."""
    name = rule_id.split(":")[0].rstrip("*")
    return f"{layer}.{name}{'_star' if rule_id.endswith('*') else ''}"


def winner_rule(tr, consumer: str, rule_id: str):
    """The callable handed to ``consumer`` for winner rule ``rule_id``.

    A ``^cc`` id becomes the transform over the wrapped base rule, so the
    transform's own rule calls are counted and timed too.
    """
    base = rule_id.removesuffix("^cc")
    f = tr.rule("transform.cc" if base != rule_id else consumer,
                span_name("scf", base), resolve_rule(base))
    if base == rule_id:
        return f

    def transformed(profile):
        return cc_transform(f, profile)

    return tr.rule(consumer, "transform.cc", transformed)


def execute(job, tr):
    """Run ``job``; returns the parsed profile, the answer and the game."""
    profile = tr.call("profiles.parse", parse_profile, job.text)
    game = None
    if job.kind == "winner":
        base = job.rule.removesuffix("^cc")
        f = resolve_rule(base)
        if base == job.rule:
            answer = tr.call(span_name("scf", base), f, profile)
        else:
            inner = tr.rule("transform.cc", span_name("scf", base), f)
            answer = tr.call("transform.cc", cc_transform, inner, profile)
    elif job.kind == "ranking":
        answer = tr.call(span_name("spf", job.rule), resolve_spf(job.rule), profile)
    elif job.kind == "axiom":
        if job.detail in RANKING_AXIOMS:
            rule = tr.rule("axioms", span_name("spf", job.rule), resolve_spf(job.rule))
        else:
            rule = winner_rule(tr, "axioms", job.rule)
        answer = tr.call(f"axioms.{job.detail}", AXIOMS[job.detail], rule, profile)
    else:
        rule = winner_rule(tr, "games", job.rule)
        game = tr.call("games.spec", GameSpec, profile, rule, job.detail)
        answer = []
        for a in sorted(profile.candidates):
            if job.detail == "gamma":
                dominant, witness = tr.call("games.gamma", gamma_dominant_run, game, a)
                obvious, ob_witness = tr.call("games.gamma", gamma_obviously_dominant_run, game, a)
                answer.append({"candidate": a, "run_dominant": dominant, "witness": witness,
                               "obviously_dominant": obvious, "obviousness_witness": ob_witness})
            else:
                obvious, witness = tr.call("games.lambda", lambda_obviously_dominant_run, game, a)
                answer.append({"candidate": a, "obviously_dominant": obvious, "witness": witness})
    return profile, answer, game


# ---------------------------------------------------------------------------
# canonical answers


def canonical(job, answer) -> str:
    """The answer as sorted, key-ordered JSON text."""
    if job.kind == "winner":
        obj = sorted(answer)
    elif job.kind == "ranking":
        obj = sorted(">".join(r) for r in answer)
    elif job.kind == "axiom":
        obj = {"holds": answer.holds, "witness": answer.witness}
    else:
        obj = answer
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# invariants and witness replays


class CheckFailed(Exception):
    """An answer broke an invariant or its witness did not replay."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def has_nontrivial_clone_set(profile) -> bool:
    """Is some set of 2..m-1 candidates consecutive on every ballot?

    Written independently of ``clonelab.clones`` so the check neither
    trusts nor warms its cache.
    """
    first = profile.groups[0][0]
    m = len(first)
    positions = [{c: i for i, c in enumerate(r)} for r, _ in profile.groups]
    for i in range(m):
        for j in range(i + 2, m + 1):
            if j - i == m:
                continue
            members = first[i:j]
            if all(max(q[c] for c in members) - min(q[c] for c in members) == j - i - 1
                   for q in positions):
                return True
    return False


def check(job, profile, answer, game, tr) -> None:
    """Raise :class:`CheckFailed` unless the answer passes every check."""
    cands = set(profile.candidates)
    if job.kind == "winner":
        _require(bool(answer) and answer <= cands, f"winners {sorted(answer)} not a non-empty subset")
        base = job.rule.removesuffix("^cc")
        if base != job.rule and not has_nontrivial_clone_set(profile):
            plain = resolve_rule(base)(profile)
            _require(plain == answer, f"{job.rule} gave {sorted(answer)} but {base} gave {sorted(plain)}"
                     " on a profile with only trivial clone sets")
    elif job.kind == "ranking":
        _require(bool(answer), "no ranking")
        for r in answer:
            _require(len(r) == len(cands) and set(r) == cands, f"ranking {r} is not a permutation")
    elif job.kind == "axiom":
        if answer.holds:
            _require(answer.witness is None, "a holding verdict carries a witness")
        elif answer.holds is False:  # an inconclusive verdict is counted as failed, not checked
            _replay_axiom(job, profile, answer.witness, tr)
    else:
        _require([r["candidate"] for r in answer] == sorted(cands), "not one record per candidate")
        plain = copy.copy(game)  # the same game with an untraced rule, not validated again
        object.__setattr__(plain, "rule", winner_rule(NullTracer(), "games", job.rule))
        for record in answer:
            _replay_game(job.detail, plain, record)


def _replay_axiom(job, p, w, tr) -> None:
    axiom = job.detail
    if axiom in RANKING_AXIOMS:
        fn = resolve_spf(job.rule)
        base = fn(p)

        def strings(rs):
            return sorted(">".join(r) for r in rs)

        if axiom == "ioc_spf":
            k, a = frozenset(w["clone_set"]), w["removed"]
            z = "z" if "z" not in p.candidates else next(
                f"z{i}" for i in range(len(p.candidates) + 1) if f"z{i}" not in p.candidates)
            collapsed = strings({neg(r, k, z) for r in base})
            without = strings({neg(r, k - {a}, z) for r in fn(remove_candidates(p, {a}))})
            _require(collapsed == w["collapsed"] and without == w["collapsed_without"]
                     and collapsed != without, "ioc_spf witness does not replay")
        else:
            blocks = [frozenset(b) for b in w["decomposition"]]
            inner = {block_name(b): fn(restrict(p, b)) for b in blocks}
            composed = {tuple(chain.from_iterable(combo))
                        for meta in fn(summarize(p, blocks))
                        for combo in product(*(inner[x] for x in meta))}
            _require(strings(base) == w["rankings"] and strings(composed) == w["composed"]
                     and frozenset(composed) != base, "cc_spf witness does not replay")
        return

    f = resolve_rule(job.rule)
    winners = f(p)
    _require(sorted(winners) == w["winners"], f"{axiom} witness winners do not replay")
    if axiom == "ioc":
        k, a = frozenset(w["clone_set"]), w["removed"]
        after = f(remove_candidates(p, {a}))
        _require(sorted(after) == w["winners_without"], "ioc witness does not replay")
        if w["violation"] == "clone set":
            _require(bool(k & winners) != bool((k - {a}) & after), "ioc clone-set violation absent")
        else:
            b = w["outsider"]
            _require((b in winners) != (b in after), "ioc outsider violation absent")
    elif axiom == "cc":
        # The rule's own span is kept apart so replays do not add to scf.* or transform.cc.
        product_rule = tr.rule("transform.product", "transform.product.rule", f)
        composed = tr.call("transform.product", composition_product, product_rule, p, w["decomposition"])
        _require(sorted(composed) == w["composed"] and composed != winners, "cc witness does not replay")
    elif axiom == "condorcet":
        cw = w["condorcet_winner"]
        _require(condorcet_winner(p) == cw and winners != {cw}, "condorcet witness does not replay")
    elif axiom == "smith":
        top = smith(p)
        _require(sorted(top) == w["smith_set"] and sorted(winners - top) == w["outside"]
                 and w["outside"], "smith witness does not replay")
    elif axiom in ("mono", "mono_ca"):
        a, i, promoted = w["winner"], w["voter"], w["promoted_ballot"]
        ballot = list(p.voter_ranking(i))
        k = ballot.index(a)
        _require(ballot == w["ballot"] and k > 0
                 and promoted == ballot[:k - 1] + [a, ballot[k - 1]] + ballot[k + 1:],
                 "mono witness ballot does not replay")
        after = f(replace_voter(p, i, promoted))
        _require(sorted(after) == w["new_winners"] and a in winners and a not in after,
                 "mono witness does not replay")
    elif axiom in ("part", "part_ca"):
        ballot = w["ballot"]
        after = f(add_voter(p, ballot))
        pos = {c: i for i, c in enumerate(ballot)}
        before_fav = min(winners, key=pos.__getitem__)
        after_fav = min(after, key=pos.__getitem__)
        _require(sorted(after) == w["new_winners"] and before_fav == w["favourite_before"]
                 and after_fav == w["favourite_after"] and pos[before_fav] < pos[after_fav],
                 "participation witness does not replay")
    elif axiom in ("isda", "isda_ca"):
        a = w["removed"]
        after = f(remove_candidates(p, {a}))
        _require(a not in smith(p) and sorted(after) == w["winners_without"] and after != winners,
                 "isda witness does not replay")


def _replay_game(form: str, game, record) -> None:
    a = record["candidate"]
    m = game.profile.m

    def pay(winner):
        return 0 if winner is None else m - clone_metric(game.profile, a, winner)

    if form == "gamma":
        _require(record["run_dominant"] or not record["obviously_dominant"],
                 "obviously dominant but not dominant")
        w = record["witness"]
        if not record["run_dominant"]:
            others = w["others_running"]
            u_run, u_drop = utility(game, a, others + [a]), utility(game, a, others)
            _require((u_run, u_drop) == (w["run_utility"], w["drop_utility"]) and u_run < u_drop,
                     "gamma witness does not replay")
        w = record["obviousness_witness"]
        if not record["obviously_dominant"]:
            worst = utility(game, a, w["worst_run_others"] + [a])
            best = utility(game, a, w["best_drop_others"])
            _require((worst, best) == (w["worst_run_utility"], w["best_drop_utility"]) and worst < best,
                     "gamma obviousness witness does not replay")
        return
    w = record["witness"]
    if record["obviously_dominant"]:
        return
    ran = lambda_play(game, {**w["worst_run"]["opponents"], a: RUN})
    dropped = lambda_play(game, {**w["best_drop"]["opponents"], a: DROP})
    _require(ran.winner == w["worst_run"]["winner"] and dropped.winner == w["best_drop"]["winner"]
             and (pay(ran.winner), pay(dropped.winner)) == (w["worst_run_utility"], w["best_drop_utility"])
             and w["worst_run_utility"] < w["best_drop_utility"], "lambda witness does not replay")
