"""Axiom checks by exhaustive search at desk scale.

Each check runs a rule over every instance the axiom quantifies on one
profile (clone sets, removals, ballot promotions, joining voters, block
partitions) and returns an :class:`AxiomVerdict`: ``holds`` is True, False
with a re-checkable witness, or None when an enumeration cap fired — a
capped search is *inconclusive*, never a pass.

The clone-aware axiom variants (``clone_aware=True``, the default) quantify
only over changes that leave the profile's clone structure intact; the plain
variants drop that restriction.  Monotonicity and ISDA compare the clone
structure after each promotion or deletion with the profile's, since either
can create clone sets.  A joining ballot can only remove them, so clone-aware
participation compares no structures: it grows just the rankings on which
every clone set of the profile is consecutive (the frontiers of its PQ-tree,
Elkind, Faliszewski & Slinko), where plain participation tries all m!.  Each
joined profile takes its core from the profile's
(:func:`clonelab.profiles.add_voter`).

``cc``, ``ioc``, ``isda``, ``cc_spf`` and ``ioc_spf`` elect each removal,
block and block summary once, as a mask on the profile's own core, through
the memo of one :class:`clonelab.transform._Elector`; a decomposition is a
tiling of voter 1's ranking by clone intervals, rankings stay code orders
(``ioc_spf`` collapses a clone set on them) and only witnesses are named.
``isda_ca`` counts a removal's clone sets on the core's rankings cut to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, permutations, product

from .clones import EnumerationCapExceeded, _clone_intervals, _tilings, clone_structure
from .profiles import Profile, _codes, add_voter, replace_voter
from .scf import _bits, _full, _names, condorcet_winner, smith
from .spf import neg, resolve_spf
from .transform import _Elector, resolve_rule

__all__ = [
    "AxiomVerdict",
    "check_ioc",
    "check_cc",
    "check_condorcet",
    "check_smith",
    "check_monotonicity_ca",
    "check_participation_ca",
    "check_isda_ca",
    "check_ioc_spf",
    "check_cc_spf",
]


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom check on one profile.

    ``holds`` is ``None`` when the search was cut off by a cap and nothing
    can be concluded.  ``witness`` contains plain lists/strings/ints so it
    can be re-run or serialised as is.
    """

    axiom: str
    holds: bool | None
    witness: dict | None = None
    detail: str = ""

    @property
    def inconclusive(self) -> bool:
        return self.holds is None


def _sorted_sets(sets) -> list[list[str]]:
    return sorted(sorted(s) for s in sets)


def _nontrivial_clone_sets(profile: Profile):
    m = profile.m
    return sorted(
        (k for k in clone_structure(profile) if 2 <= len(k) <= m - 1),
        key=lambda k: tuple(sorted(k)),
    )


# ---------------------------------------------------------------------------
# winner-set axioms


def check_ioc(rule, profile: Profile) -> AxiomVerdict:
    """Independence of clones: deleting one clone never changes whether its
    clone set wins, nor any outsider's fate."""
    elect = _Elector(rule, profile)
    code, full = _codes(profile.candidates), _full(profile)
    winners = _names(profile, elect(full))
    for k in _nontrivial_clone_sets(profile):
        for a in sorted(k):  # nested sets share removals, elected once
            reduced_winners = _names(profile, elect(full & ~(1 << code[a])))
            base = {
                "clone_set": sorted(k),
                "removed": a,
                "winners": sorted(winners),
                "winners_without": sorted(reduced_winners),
            }
            if bool(k & winners) != bool((k - {a}) & reduced_winners):
                return AxiomVerdict("ioc", False, base | {"violation": "clone set"})
            for b in sorted(set(profile.candidates) - k):
                if (b in winners) != (b in reduced_winners):
                    return AxiomVerdict(
                        "ioc", False, base | {"violation": "outsider", "outsider": b}
                    )
    return AxiomVerdict("ioc", True)


def check_cc(rule, profile: Profile, cap: int = 10**6) -> AxiomVerdict:
    """Composition consistency: every two-level election over a partition
    into clone sets reproduces the rule's winners."""
    elect = _Elector(rule, profile)  # blocks recur; the one-block tiling's is the profile
    winners = elect(_full(profile))
    try:
        tilings = _tilings(profile, cap)
    except EnumerationCapExceeded as exc:
        return AxiomVerdict("cc", None, detail=str(exc))
    for blocks, masks, won in _summaries(elect, tilings):
        composed = sum(elect(masks[r]) for r in _bits(won))  # disjoint
        if composed != winners:
            return AxiomVerdict(
                "cc",
                False,
                {
                    "decomposition": _sorted_sets(blocks.values()),
                    "winners": sorted(_names(profile, winners)),
                    "composed": sorted(_names(profile, composed)),
                },
            )
    return AxiomVerdict("cc", True)


def _summaries(elect: _Elector, tilings):
    """For each tiling of :func:`clonelab.clones._tilings`, each block's members
    and mask by its representative (the member voter 1 ranks first), and the
    rule's answer on the block summary."""
    codes, first = elect.profile._core.ballots[0], elect.profile.groups[0][0]
    for tiling in tilings:
        blocks = {codes[a]: first[a:b] for a, b in tiling}
        masks = {codes[a]: sum(1 << c for c in codes[a:b]) for a, b in tiling}
        yield blocks, masks, elect(sum(1 << r for r in blocks), blocks)


def check_condorcet(rule, profile: Profile) -> AxiomVerdict:
    """If somebody beats everyone head-to-head, the rule elects exactly them."""
    f = resolve_rule(rule)
    cw = condorcet_winner(profile)
    if cw is None:
        return AxiomVerdict("condorcet", True, detail="no pairwise-unbeaten candidate")
    winners = f(profile)
    if winners == frozenset({cw}):
        return AxiomVerdict("condorcet", True)
    return AxiomVerdict(
        "condorcet", False, {"condorcet_winner": cw, "winners": sorted(winners)}
    )


def check_smith(rule, profile: Profile) -> AxiomVerdict:
    """All winners come from the Smith set."""
    f = resolve_rule(rule)
    winners = f(profile)
    top = smith(profile)
    if winners <= top:
        return AxiomVerdict("smith", True)
    return AxiomVerdict(
        "smith",
        False,
        {"winners": sorted(winners), "smith_set": sorted(top), "outside": sorted(winners - top)},
    )


def check_monotonicity_ca(rule, profile: Profile, *, clone_aware: bool = True) -> AxiomVerdict:
    """Promoting a winner one seat on one ballot never dethrones them.

    The clone-aware variant only considers promotions that leave the clone
    structure unchanged.
    """
    axiom = "mono_ca" if clone_aware else "mono"
    f = resolve_rule(rule)
    winners = f(profile)
    structure = clone_structure(profile) if clone_aware else None
    for a in sorted(winners):
        for i in range(1, profile.n + 1):
            ranking = profile.voter_ranking(i)
            k = ranking.index(a)
            if k == 0:
                continue
            promoted = list(ranking)
            promoted[k - 1], promoted[k] = promoted[k], promoted[k - 1]
            changed = replace_voter(profile, i, promoted)
            if clone_aware and clone_structure(changed) != structure:
                continue
            new_winners = f(changed)
            if a not in new_winners:
                return AxiomVerdict(
                    axiom,
                    False,
                    {
                        "winner": a,
                        "voter": i,
                        "ballot": list(ranking),
                        "promoted_ballot": promoted,
                        "winners": sorted(winners),
                        "new_winners": sorted(new_winners),
                    },
                )
    return AxiomVerdict(axiom, True)


def check_participation_ca(rule, profile: Profile, *, clone_aware: bool = True) -> AxiomVerdict:
    """Joining the electorate never leaves the joiner worse off.

    For every possible new ballot r, the r-favourite among the winners after
    joining must be at least as good (by r) as the r-favourite before.  The
    clone-aware variant only considers ballots preserving the clone
    structure: the rankings that keep every clone set of the profile
    consecutive, grown by :func:`_whole_rankings` in the order
    ``permutations(profile.candidates)`` would list them, so its witness is
    the first failing one of those m!.
    """
    axiom = "part_ca" if clone_aware else "part"
    f = resolve_rule(rule)
    winners = f(profile)
    joining = _whole_rankings(profile) if clone_aware else permutations(profile.candidates)
    for ranking in joining:
        new_winners = f(add_voter(profile, ranking))
        pos = {c: k for k, c in enumerate(ranking)}
        favourite_before = min(winners, key=pos.__getitem__)
        favourite_after = min(new_winners, key=pos.__getitem__)
        if pos[favourite_before] < pos[favourite_after]:
            return AxiomVerdict(
                axiom,
                False,
                {
                    "ballot": list(ranking),
                    "favourite_before": favourite_before,
                    "favourite_after": favourite_after,
                    "winners": sorted(winners),
                    "new_winners": sorted(new_winners),
                },
            )
    return AxiomVerdict(axiom, True)


def _whole_rankings(profile: Profile):
    """Every ranking of the candidates on which each clone set of the profile
    is consecutive, in the order of ``permutations(profile.candidates)``."""
    code_of = _codes(profile.candidates)
    sets = [sum(1 << code_of[c] for c in k) for k in _nontrivial_clone_sets(profile)]
    return _grow(profile.candidates, sets, 0, [])


def _grow(names, sets, placed: int, order: list):
    """The completions of the prefix ``order`` (its codes: the mask
    ``placed``) that keep every clone set of ``sets`` (masks) consecutive.

    Candidates are tried in code order; the next one must lie in every set
    the prefix has begun but not finished.  A prefix inside two overlapping
    sets that both need finishing first has no completion.
    """
    m = len(names)
    if len(order) == m:
        yield tuple(order)
        return
    allowed = (1 << m) - 1 & ~placed
    for k in sets:
        if k & placed and k & ~placed:  # begun, not finished
            allowed &= k
    for c in range(m):
        if allowed >> c & 1:
            order.append(names[c])
            yield from _grow(names, sets, placed | 1 << c, order)
            order.pop()


def _shrinks_exactly(structure, a: str, table) -> bool:
    """Are the clone sets of the field without ``a`` (interval ``table``) those of
    ``structure`` less ``a``?  Each of those is one of it, so when it has no more."""
    return sum(map(sum, table)) == len({k - {a} for k in structure} - {frozenset()})


def check_isda_ca(rule, profile: Profile, *, clone_aware: bool = True) -> AxiomVerdict:
    """Deleting a candidate outside the Smith set never changes the winners.

    The clone-aware variant only considers deletions under which the clone
    structure shrinks exactly by the deleted candidate.
    """
    axiom = "isda_ca" if clone_aware else "isda"
    elect = _Elector(rule, profile)
    winners = elect(_full(profile))
    top = smith(profile)
    structure = clone_structure(profile) if clone_aware else None
    for a in sorted(set(profile.candidates) - top):
        without = _full(profile) & ~(1 << profile.candidates.index(a))
        if clone_aware and not _shrinks_exactly(structure, a, _clone_intervals(profile, without)[1]):
            continue
        reduced_winners = elect(without)
        if reduced_winners != winners:
            return AxiomVerdict(
                axiom,
                False,
                {
                    "removed": a,
                    "smith_set": sorted(top),
                    "winners": sorted(_names(profile, winners)),
                    "winners_without": sorted(_names(profile, reduced_winners)),
                },
            )
    return AxiomVerdict(axiom, True)


# ---------------------------------------------------------------------------
# ranking-set axioms


def _fresh_name(profile: Profile) -> str:
    """``z``, or the first of ``z0``, ``z1``, ... that names no candidate."""
    return next(z for z in chain(["z"], map("z{}".format, count())) if z not in profile.candidates)


def _shown(names, orders) -> list[str]:
    """Rankings given as orders of codes, named by ``names`` and written ``a>b>c``, sorted."""
    return sorted(">".join(map(names.__getitem__, order)) for order in orders)


def check_ioc_spf(spf, profile: Profile) -> AxiomVerdict:
    """Ranking-level independence of clones: collapsing a clone set to a
    fresh name commutes with deleting one of its members."""
    elect = _Elector(resolve_spf(spf), profile)
    code = _codes(profile.candidates)
    full, z = _full(profile), profile.m  # z: the code of the collapsed block, no candidate's
    try:
        base = elect(full)
        for k in _nontrivial_clone_sets(profile):
            block = {code[c] for c in k}
            collapsed = frozenset(neg(r, block, z) for r in base)
            for a in sorted(k):  # as in check_ioc
                without = elect(full & ~(1 << code[a]))
                collapsed_reduced = frozenset(neg(r, block - {code[a]}, z) for r in without)
                if collapsed != collapsed_reduced:
                    names = (*profile.candidates, _fresh_name(profile))
                    return AxiomVerdict(
                        "ioc_spf",
                        False,
                        {
                            "clone_set": sorted(k),
                            "removed": a,
                            "collapsed": _shown(names, collapsed),
                            "collapsed_without": _shown(names, collapsed_reduced),
                        },
                    )
    except EnumerationCapExceeded as exc:
        return AxiomVerdict("ioc_spf", None, detail=str(exc))
    return AxiomVerdict("ioc_spf", True)


def check_cc_spf(spf, profile: Profile, cap: int = 10**6) -> AxiomVerdict:
    """Ranking-level composition consistency: rank the blocks, rank inside
    each block, and splice — the result must be exactly the rule's rankings."""
    elect = _Elector(resolve_spf(spf), profile)  # as in check_cc
    try:
        base = elect(_full(profile))
        for blocks, masks, metas in _summaries(elect, _tilings(profile, cap)):
            inner = {r: elect(mask) for r, mask in masks.items()}
            composed = {
                tuple(chain.from_iterable(combo))
                for meta in metas
                for combo in product(*map(inner.__getitem__, meta))
            }
            if composed != base:
                return AxiomVerdict(
                    "cc_spf",
                    False,
                    {
                        "decomposition": _sorted_sets(blocks.values()),
                        "rankings": _shown(profile.candidates, base),
                        "composed": _shown(profile.candidates, composed),
                    },
                )
    except EnumerationCapExceeded as exc:
        return AxiomVerdict("cc_spf", None, detail=str(exc))
    return AxiomVerdict("cc_spf", True)
