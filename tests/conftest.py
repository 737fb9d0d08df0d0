"""Shared test fixtures: the bundled example profiles, a deterministic
random corpus used by the oracle-equivalence and law suites, and seeded
two- and four-ballot profiles where ties are the rule."""

from __future__ import annotations

import random
import sys
from itertools import combinations_with_replacement, permutations

import pytest

from clonelab.profiles import Profile, load_fixture
from clonelab.spf import SPF_IDS
from clonelab.transform import RULE_IDS

CORPUS_SEED = 271828
CORPUS_SIZE = 520

SMALL_SEED = 20261018
SMALL_SIZES = [(m, n) for m in range(2, 8) for n in (2, 4)]
SMALL_PER_SIZE = 10

GAME_SEED = 7
GAME_VOTERS = 15  # with 7 candidates, the candidacy benchmark's largest profiles

_NAMES = "abcdefgh"


def _group_up(rng: random.Random, rankings: list[tuple[str, ...]]):
    """Pack a ballot list into (ranking, multiplicity) groups; sometimes
    aggregates equal ballots so multiplicities > 1 get exercised too."""
    if rng.random() < 0.3:
        counts: dict[tuple[str, ...], int] = {}
        order = []
        for r in rankings:
            if r not in counts:
                order.append(r)
            counts[r] = counts.get(r, 0) + 1
        return tuple((r, counts[r]) for r in order)
    return tuple((r, 1) for r in rankings)


def _uniform_profile(rng: random.Random) -> Profile:
    m = rng.choice([1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5])
    n = rng.randint(1, 6)
    cands = tuple(_NAMES[:m])
    rankings = []
    for _ in range(n):
        r = list(cands)
        rng.shuffle(r)
        rankings.append(tuple(r))
    return Profile(candidates=cands, groups=_group_up(rng, rankings))


def _planted_clone_profile(rng: random.Random) -> Profile:
    """Uniform base profile with one candidate expanded into a block that
    every voter keeps contiguous (in an independently shuffled inner order)."""
    m_base = rng.randint(2, 4)
    size = rng.randint(2, 6 - m_base)
    base = list(_NAMES[:m_base])
    target = rng.choice(base)
    block = [f"{target}{k}" for k in range(1, size + 1)]
    cands = tuple(c for c in base if c != target) + tuple(block)
    n = rng.randint(1, 6)
    rankings = []
    for _ in range(n):
        r = list(base)
        rng.shuffle(r)
        inner = list(block)
        rng.shuffle(inner)
        expanded = []
        for c in r:
            if c == target:
                expanded.extend(inner)
            else:
                expanded.append(c)
        rankings.append(tuple(expanded))
    return Profile(candidates=tuple(sorted(cands)), groups=_group_up(rng, rankings))


def _string_profile(rng: random.Random) -> Profile:
    """Copies of one ranking plus copies of its reversal: every interval of
    the ranking is a clone set, so the tree is a single maximal-arity node."""
    m = rng.randint(3, 5)
    cands = tuple(_NAMES[:m])
    r = list(cands)
    rng.shuffle(r)
    fwd = rng.randint(1, 4)
    rev = rng.randint(0, 6 - fwd)
    groups = [(tuple(r), fwd)]
    if rev:
        groups.append((tuple(reversed(r)), rev))
    return Profile(candidates=cands, groups=tuple(groups))


def build_corpus(seed: int = CORPUS_SEED, size: int = CORPUS_SIZE) -> list[Profile]:
    rng = random.Random(seed)
    out = []
    for k in range(size):
        roll = rng.random()
        if roll < 0.55:
            out.append(_uniform_profile(rng))
        elif roll < 0.85:
            out.append(_planted_clone_profile(rng))
        else:
            out.append(_string_profile(rng))
    return out


def build_small_profiles() -> list[Profile]:
    """Impartial profiles of two or four ballots, m <= 7: the sizes where
    ties, and so the tie-breaking searches, are the rule."""
    rng = random.Random(SMALL_SEED)
    out = []
    for m, n in SMALL_SIZES:
        cands = tuple("abcdefg"[:m])
        for _ in range(SMALL_PER_SIZE):
            ballots = [tuple(rng.sample(cands, m)) for _ in range(n)]
            out.append(Profile(candidates=cands, groups=tuple((b, 1) for b in ballots)))
    return out


def build_census(m: int, max_n: int) -> list[Profile]:
    """Every profile of at most ``max_n`` voters over the first ``m`` names
    up to renaming: voter 1 casts the identity ranking, and the other
    voters' ballots run over every multiset of rankings."""
    cands = tuple(_NAMES[:m])
    return [
        Profile(candidates=cands, groups=tuple((b, 1) for b in (cands, *others)))
        for n in range(1, max_n + 1)
        for others in combinations_with_replacement(permutations(cands), n - 1)
    ]


def build_game_profiles() -> list[Profile]:
    """Two impartial and two planted profiles at candidacy-game size.  A
    planted ballot keeps {x1, x2} together in either order and y1>y2>y3
    together forward or reversed, the blocks and a, b shuffled around them."""
    rng = random.Random(GAME_SEED)
    cands = ("a", "b", "x1", "x2", "y1", "y2", "y3")
    out = []
    for _ in range(2):
        ballots = [tuple(rng.sample(cands, len(cands))) for _ in range(GAME_VOTERS)]
        out.append(Profile(candidates=cands, groups=tuple((b, 1) for b in ballots)))
    for _ in range(2):
        ballots = []
        for _ in range(GAME_VOTERS):
            x = rng.sample(["x1", "x2"], 2)
            y = ["y1", "y2", "y3"] if rng.random() < 0.5 else ["y3", "y2", "y1"]
            top = rng.sample(["a", "b", "x", "y"], 4)
            ballots.append(tuple(c for t in top for c in {"x": x, "y": y}.get(t, [t])))
        out.append(Profile(candidates=cands, groups=tuple((b, 1) for b in ballots)))
    return out


def rule_ids(n: int, ids=RULE_IDS):
    """Every registered winner-rule id (of ``ids``), indexed ids at voters 1
    and 2 (voter 2 only where there is one among ``n`` voters)."""
    for rid in ids:
        yield from ([rid.replace("<i>", str(i)) for i in (1, 2)[:n]] if "<i>" in rid else [rid])


def ranking_ids(n: int):
    """Every registered ranking-rule id, indexed as :func:`rule_ids` does."""
    return rule_ids(n, SPF_IDS)


def count_calls(codes, fn, *args):
    """Run ``fn(*args)``; returns its result and, for each code object of
    ``codes``, how many calls of it the run made (a profile hook sees every
    call, however the function was imported or bound)."""
    counts = dict.fromkeys(codes, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, counts


def masks_asked(code, fn, *args) -> list[int]:
    """Run ``fn(*args)``; returns the ``mask`` argument of each call of the
    function of code object ``code`` it made, in call order."""
    masks = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            masks.append(frame.f_locals["mask"])

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return masks


@pytest.fixture(scope="session")
def corpus() -> list[Profile]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_profiles() -> list[Profile]:
    return build_small_profiles()


@pytest.fixture(scope="session")
def fixtures() -> dict[str, Profile]:
    return {name: load_fixture(name) for name in
            ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9")}
