"""The four workloads: which jobs a pass holds and which profiles they get.

A run is a sequence of whole passes.  A pass holds every (profile class,
rule) pairing of its workload once, so every pass has the same mix of work
and only the profiles differ between seeds.  Pass ``k`` draws its profiles
from its own ``random.Random``, so a pass is the same whether or not the
passes before it ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen


@dataclass(frozen=True)
class Job:
    """One unit of work: a rule, axiom check or game on one profile text.

    ``kind`` is ``winner``, ``ranking``, ``axiom`` or ``game``.  ``rule`` is
    a clonelab rule id (``bp^cc``, ``stv*``, ``rp_i:1``); ``detail`` is the
    axiom name or game form.  ``cls`` names the profile class.
    """

    key: str
    kind: str
    rule: str
    detail: str
    cls: str
    text: str


TAIL_LADDER = (50, 75, 80, 85, 90, 95, 98, 99, 99.5, 99.8, 99.9)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget_s: float  # per-job limit; a job over it fails and is charged this
    params: dict  # generator parameters, copied into the manifest

    def pass_jobs(self, seed: int, k: int) -> list[Job]:
        rng = random.Random(f"{self.name}/{seed}/{k}")
        return _PASS_JOBS[self.name](rng, k)

    @property
    def tail_pct(self) -> float:
        """The highest percentile with at least 10 jobs of one pass beyond it.

        Every run holds whole passes, so every run has those 10 jobs, and the
        percentile is the same in every run whatever its speed.
        """
        n = len(self.pass_jobs(0, 0))
        return max(p for p in TAIL_LADDER if n * (1 - p / 100) >= 10)


# ---------------------------------------------------------------------------
# elections: large electorates, one fresh profile per job

ELECTION_RULES = [
    r + cc
    for r in ("pv", "bp", "sc", "smith", "schwartz", "ucg", "ucf", "rp_i:1", "stv_i:1")
    for cc in ("", "^cc")
]
# Grouped profiles cost a few ms a job, distinct ones tens to hundreds.  One
# grouped kind keeps them a quarter of the pass, so the median job lies among
# the distinct-ballot jobs and not on the gap between the two groups.
ELECTION_CLASSES = [
    (m, shape, kind)
    for m in (8, 12, 20)
    for shape, kinds in (("distinct", ("impartial", "planted", "string")),
                         ("grouped", ("impartial",)))
    for kind in kinds
]


def election_excluded(rule: str, m: int, kind: str) -> bool:
    """Pairs left out because no run could finish them.

    Split Cycle enumerates every simple cycle of the majority digraph: an
    impartial 20-candidate electorate has too many to list, and so has a
    planted one on some seeds.  Under ``^cc`` a planted profile splits into
    blocks of at most four, so only the impartial ``sc^cc`` goes.
    """
    if m != 20:
        return False
    return rule == "sc" and kind in ("impartial", "planted") or rule == "sc^cc" and kind == "impartial"


def _elections(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for m, shape, kind in ELECTION_CLASSES:
        for rule in ELECTION_RULES:
            if election_excluded(rule, m, kind):
                continue
            if shape == "distinct":
                text = gen.profile_text(rng, kind, m, 1000)
            else:
                text = gen.profile_text(rng, kind, m, 10_000, lines=40)
            cls = f"m{m}-{shape}-{kind}"
            jobs.append(Job(f"{k}.{cls}.{rule}", "winner", rule, "", cls, text))
    return jobs


# ---------------------------------------------------------------------------
# ties: two or four ballots, where parallel-universe search does the work

TIES_WINNER_RULES = ("stv", "as", "rp_n", "sc")
TIES_RANKING_RULES = ("stv*", "rp_n*", "nr", "rp_i:1*", "stv_i:1", "nr_i:1", "nnr_i:1")
TIES_PUT_RP_MAX_M = 4  # PUT ranked pairs: its search cost is heavy-tailed from m=5 on
TIES_BP_STAR_MAX_M = 7  # bp* caps at 10^4 rankings; m! <= 5040 can never reach it


def _ties(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for m in (4, 5, 6, 7, 8):
        for n in (2, 4):
            text = gen.profile_text(rng, "impartial", m, n)
            winners = list(TIES_WINNER_RULES)
            rankings = list(TIES_RANKING_RULES)
            if m <= TIES_PUT_RP_MAX_M:
                winners.append("rp")
                rankings.append("rp*")
            if m <= TIES_BP_STAR_MAX_M:
                rankings.append("bp*")
            for rule in winners:
                jobs.append(Job(f"{k}.m{m}n{n}.{rule}", "winner", rule, "", f"m{m}-n{n}", text))
            for rule in rankings:
                jobs.append(Job(f"{k}.m{m}n{n}.{rule}", "ranking", rule, "", f"m{m}-n{n}", text))
    return jobs


# ---------------------------------------------------------------------------
# axiom-sweep: every CLI axiom on small profiles

WINNER_AXIOMS = ("ioc", "cc", "condorcet", "smith", "mono", "mono_ca",
                 "isda", "isda_ca", "part", "part_ca")
RANKING_AXIOMS = ("ioc_spf", "cc_spf")
AXIOM_WINNER_RULES = [r + cc for cc in ("", "^cc") for r in ("pv", "stv", "rp_i:1", "bp", "sc", "as")]
AXIOM_RANKING_RULES = ("stv*", "rp_i:1*", "nr")
AXIOM_SLOTS = [(a, r) for a in WINNER_AXIOMS for r in AXIOM_WINNER_RULES] + [
    (a, r) for a in RANKING_AXIOMS for r in AXIOM_RANKING_RULES
]
AXIOM_CLASSES = [(m, kind) for m in (4, 5, 6) for kind in ("impartial", "planted", "string", "two-ballot")]
# Participation scans all m! joining ballots; at m=6 its 720 rule calls per
# check take three quarters of the sweep and would hide every other axiom.
PARTICIPATION_MAX_M = 5


def _axiom_sweep(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for m, kind in AXIOM_CLASSES:
        text = gen.profile_text(rng, kind, m, rng.randint(2, 9))
        cls = f"m{m}-{kind}"
        for axiom, rule in AXIOM_SLOTS:
            if axiom.startswith("part") and m > PARTICIPATION_MAX_M:
                continue
            jobs.append(Job(f"{k}.{cls}.{axiom}.{rule}", "axiom", rule, axiom, cls, text))
    return jobs


# ---------------------------------------------------------------------------
# candidacy: both game forms, every candidate analysed

GAME_SLOTS = [(r, form) for r in ("rp_i:1", "stv_i:1", "rp_i:1^cc", "stv_i:1^cc") for form in ("gamma", "lambda")]
# Each job costs about 2^m * m rule calls: 0.2-0.9 s at m=7, up to 2 s at m=8.
GAME_CLASSES = [(m, kind) for m in (5, 6, 7) for kind in ("impartial", "planted")]
GAME_VOTERS = 15
GAME_PROFILES_PER_SLOT = 2  # 96 jobs a pass, enough for a steady median


def _candidacy(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for m, kind in GAME_CLASSES:
        for rule, form in GAME_SLOTS:
            for rep in range(GAME_PROFILES_PER_SLOT):
                text = gen.profile_text(rng, kind, m, GAME_VOTERS)
                cls = f"m{m}-{kind}"
                jobs.append(Job(f"{k}.{cls}.{rule}.{form}.{rep}", "game", rule, form, cls, text))
    return jobs


_PASS_JOBS = {
    "elections": _elections,
    "ties": _ties,
    "axiom-sweep": _axiom_sweep,
    "candidacy": _candidacy,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "elections",
            "large electorates seen once each, where the majority matrix, pairwise rules and clone detection dominate",
            budget_s=5.0,
            params={
                "m": [8, 12, 20],
                "shapes": {"distinct": "n=1000, one line per voter",
                           "grouped": "n=10000 over at most 40 lines"},
                "kinds": {"distinct": ["impartial", "planted", "string"],
                          "grouped": ["impartial"]},
                "rules": ELECTION_RULES,
                "excluded": "sc on impartial and planted m=20 profiles, sc^cc on impartial m=20 profiles",
                "pass": "every (class, rule) pair once, each on a fresh profile",
            },
        ),
        Workload(
            "ties",
            "two or four ballots, so parallel-universe tie-breaking searches do nearly all the work",
            budget_s=5.0,
            params={
                "m": [4, 5, 6, 7, 8],
                "n": [2, 4],
                "kinds": ["impartial"],
                "winner_rules": list(TIES_WINNER_RULES) + [f"rp (m <= {TIES_PUT_RP_MAX_M})"],
                "ranking_rules": list(TIES_RANKING_RULES)
                + [f"rp* (m <= {TIES_PUT_RP_MAX_M})", f"bp* (m <= {TIES_BP_STAR_MAX_M})"],
                "pass": "one profile per (m, n), every listed rule on it",
            },
        ),
        Workload(
            "axiom-sweep",
            "every CLI axiom on small profiles, so profile surgery, repeated clone detection and cache growth dominate",
            budget_s=5.0,
            params={
                "m": [4, 5, 6],
                "n": "uniform in 2..9 per profile",
                "kinds": ["impartial", "planted", "string", "two-ballot"],
                "winner_axioms": list(WINNER_AXIOMS),
                "ranking_axioms": list(RANKING_AXIOMS),
                "winner_rules": AXIOM_WINNER_RULES,
                "ranking_rules": list(AXIOM_RANKING_RULES),
                "participation": f"part and part_ca only for m <= {PARTICIPATION_MAX_M}",
                "pass": "one profile per (m, kind), every (axiom, rule) pair on it",
            },
        ),
        Workload(
            "candidacy",
            "candidacy games, where every subset of one base profile is evaluated 2m+1 times",
            budget_s=10.0,
            params={
                "m": sorted({m for m, _ in GAME_CLASSES}),
                "n": GAME_VOTERS,
                "profiles_per_slot": GAME_PROFILES_PER_SLOT,
                "kinds": ["impartial", "planted"],
                "rules": ["rp_i:1", "stv_i:1", "rp_i:1^cc", "stv_i:1^cc"],
                "forms": ["gamma", "lambda"],
                "pass": "every (class, rule, form) triple on fresh profiles; a job analyses every candidate",
            },
        ),
    )
}
