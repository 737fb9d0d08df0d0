"""Elimination rules (STV and its ranking-valued relatives, nested runoff and
alternate Smith) against the round-by-round oracles in ``oracles.py``, plus
the input handling of ``first_place_counts``."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import clonelab
from clonelab.profiles import Profile
from clonelab.scf import alt_smith, first_place_counts, pv, stv, stv_i, stv_i_ranking
from clonelab.spf import nnr_i_star, nr_i_star, nr_star, stv_star

from conftest import SMALL_SEED
from oracles import (
    brute_alt_smith,
    brute_first_places,
    brute_nnr_i_star,
    brute_nr_i_star,
    brute_nr_star,
    brute_stv,
    brute_stv_i_ranking,
    brute_stv_star,
    nonempty_subsets,
)

def _check_against_oracles(p: Profile) -> None:
    assert stv(p) == brute_stv(p)
    assert stv_star(p) == brute_stv_star(p)
    assert nr_star(p) == brute_nr_star(p)
    assert alt_smith(p) == brute_alt_smith(p)
    for i in range(1, p.n + 1):
        assert stv_i_ranking(p, i) == brute_stv_i_ranking(p, i)
        assert nr_i_star(p, i) == {brute_nr_i_star(p, i)}
        assert nnr_i_star(p, i) == {brute_nnr_i_star(p, i)}


def test_elimination_rules_match_oracles_on_corpus(corpus):
    for p in corpus:
        _check_against_oracles(p)


def test_elimination_rules_match_oracles_on_small_ties(small_profiles):
    for p in small_profiles:
        _check_against_oracles(p)


def test_more_than_256_candidates():
    """Past 256 candidates the core codes ballots as tuples, not bytes."""
    rng = random.Random(SMALL_SEED)
    cands = tuple(f"c{k}" for k in range(257))
    a, b = tuple(rng.sample(cands, 257)), tuple(rng.sample(cands, 257))
    p = Profile(candidates=cands, groups=((a, 1), (b, 2), (a, 1)))
    assert isinstance(p._core.ballots[0], tuple)
    counts = brute_first_places(p)
    assert pv(p) == {c for c, v in counts.items() if v == max(counts.values())}
    expected = brute_stv_i_ranking(p, 1)
    assert stv_i_ranking(p, 1) == expected
    assert stv_i(p, 1) == {expected[0]}
    assert nr_i_star(p, 1) == {brute_nr_i_star(p, 1)}


def test_voter_index_inside_a_repeated_ranking_group():
    """Voter i's tie-break ballot is found through the group slots when
    groups repeat a ranking and i sits inside a multiplicity group."""
    r1, r2, r3 = ("a", "b", "c", "d", "e"), ("d", "e", "a", "c", "b"), ("d", "e", "b", "a", "c")
    p = Profile(candidates=r1, groups=((r1, 1), (r2, 3), (r1, 3), (r3, 3)))
    assert p._core.slots == (0, 1, 0, 2)
    stv_rankings, nr_rankings = set(), set()
    for i in range(1, p.n + 1):
        expected = brute_stv_i_ranking(p, i)
        assert stv_i_ranking(p, i) == expected
        assert stv_i(p, i) == {expected[0]}
        (order,) = nr_i_star(p, i)
        assert order == brute_nr_i_star(p, i)
        stv_rankings.add(expected)
        nr_rankings.add(order)
    # each of the three rankings breaks ties its own way, so a voter read
    # off the wrong ballot (voter 6 off the third one, say) would show
    assert len(stv_rankings) == len(nr_rankings) == 3


def test_first_place_counts_rejects_unknown_candidates(fixtures):
    with pytest.raises(ValueError, match="zzz"):
        first_place_counts(fixtures["P2"], among=["a1", "zzz"])


def test_first_place_counts_rejects_empty_among(fixtures):
    with pytest.raises(ValueError):
        first_place_counts(fixtures["P2"], among=[])


def test_first_place_counts_rejects_a_bare_string(fixtures):
    with pytest.raises(ValueError):
        first_place_counts(fixtures["P2"], among="a1")


def test_first_place_counts_match_brute_force(fixtures, corpus):
    """Every non-empty ``among`` and the default, counted voter by voter;
    the keys come in the order of the profile's candidates."""
    for p in [*fixtures.values(), *corpus[:120]]:
        for among in [None, *nonempty_subsets(p.candidates)]:
            counts = first_place_counts(p, among)
            assert counts == brute_first_places(p, among), (p, among)
            pool = p.candidates if among is None else among
            assert list(counts) == [c for c in p.candidates if c in pool]


def test_first_place_counts_key_order_is_the_same_under_any_hash_seed():
    """The keys do not come in the order of a set of names, which moves with
    the interpreter's hash seed: three fresh interpreters list them alike."""
    script = (
        "from clonelab.profiles import load_fixture\n"
        "from clonelab.scf import first_place_counts\n"
        "print(list(first_place_counts(load_fixture('P1'))))\n"
        "print(list(first_place_counts(load_fixture('P2'), ['c', 'b', 'a1'])))\n"
    )
    path = [str(Path(clonelab.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    outputs = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p), "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert outputs == {"['a', 'b', 'c', 'd']\n['a1', 'b', 'c']\n"}
