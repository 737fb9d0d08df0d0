"""Ranked ballot profiles and the handful of operations everything else builds on.

A profile stores complete strict rankings in multiplicity groups, e.g. four
voters sharing ``b>c>a2>a1`` occupy one group with multiplicity 4.  Voter
indices are 1-based positions in the expanded list of ballots (group order,
then within-group repetition), so voter-indexed rules have a stable meaning
after any of the transformations here: none of them merge or reorder groups.

Under the public groups each profile keeps a private integer core, built on
first use (at derivation for a derived or joined profile, below) and then
kept with the profile (it takes no part in equality, hashing or repr).  It
holds no names, coding each candidate by its place in ``candidates`` (names
become codes where they come in, by :func:`_codes`), and holds the distinct
rankings as code sequences with their voter counts, in order of first
appearance (voter 1's ranking first), and the margin rows every pairwise
rule reads.  The rows come from a packed-integer kernel: with a field of
``w = n.bit_length() + 1`` bits per candidate, each distinct ranking is
walked bottom to top, adding the weighted sum of the fields of the
candidates already passed to the row of the current one, so one big-int
addition per ballot position counts a candidate's wins over everyone below
it (O(k·m) additions over k distinct rankings).  Deduplication lives only in
the core: the groups, and so the voter indices, are never merged.

Every profile derived by dropping or merging candidates (:func:`restrict`,
:func:`remove_candidates`, :func:`summarize` and ``_Elector``'s adapter)
goes one way, :func:`_derive`: each of the base core's k distinct code
rankings is cut down to the kept codes (one representative per block for a
summary) and renumbered, equal results merge with their weights summed, and
the group slots are remapped.  That is the derived profile's core, and its
public groups are named from it, one name tuple per distinct cut ranking,
every group keeping its multiplicity and place.  Its margin rows are the
submatrix of the base's, cut at derivation when the base has them, and are
otherwise counted on first read: a derivation never counts the base's.

A profile joined by one more voter (:func:`add_voter`) takes the base's core
the same way: the ballot is coded once and counted into it, and the margin
rows, when the base has them, are the base's plus that ballot's ±1 on each
pair.  :func:`parse_profile` builds the core as it reads, tokenizing each
distinct ballot text once.  Every other profile builds its core from its groups.

The text format accepted by :func:`parse_profile`::

    # comment
    candidates: a,b,c      (optional header; first-appearance order otherwise)
    2: a>b>c
    1: c>b>a
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

Ranking = tuple[str, ...]

__all__ = [
    "Ranking",
    "Profile",
    "MajorityMatrix",
    "ProfileParseError",
    "parse_profile",
    "serialize_profile",
    "load_fixture",
    "fixture_names",
    "remove_candidates",
    "restrict",
    "summarize",
    "majority_matrix",
    "reverse_profile",
    "add_voter",
    "replace_voter",
]


class ProfileParseError(ValueError):
    """Raised when profile text (or a constructed profile) is malformed."""


@dataclass(frozen=True)
class Profile:
    """An anonymous-but-indexed preference profile.

    Attributes:
        candidates: Candidate names in presentation order.
        groups: ``(ranking, multiplicity)`` pairs; each ranking is a
            permutation of ``candidates`` and multiplicities are positive.
    """

    candidates: tuple[str, ...]
    groups: tuple[tuple[Ranking, int], ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ProfileParseError("profile has no candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise ProfileParseError("duplicate candidate in candidate list")
        if any("+" in c for c in self.candidates):
            parts = [part for c in self.candidates for part in c.split("+")]
            if len(parts) != len(set(parts)):  # two blocks would share a block_name
                raise ProfileParseError("candidate names repeat a '+'-separated part")
        if not self.groups:
            raise ProfileParseError("profile has no ballots")
        cset = set(self.candidates)
        m = len(cset)
        for ranking, mult in self.groups:
            if mult <= 0:
                raise ProfileParseError(f"non-positive multiplicity {mult}")
            if len(ranking) == m and set(ranking) == cset:
                continue  # a permutation of the candidates
            if len(ranking) != len(set(ranking)):
                raise ProfileParseError(f"duplicate candidate in ballot {ranking}")
            missing = cset - set(ranking)
            unknown = set(ranking) - cset
            if unknown:
                raise ProfileParseError(f"unknown candidate(s) {sorted(unknown)} in ballot")
            if missing:
                raise ProfileParseError(f"ballot is missing candidate(s) {sorted(missing)}")

    @cached_property
    def _core(self) -> _Core:
        return _Core(self)

    @property
    def m(self) -> int:
        """Number of candidates."""
        return len(self.candidates)

    @property
    def n(self) -> int:
        """Number of voters (sum of multiplicities)."""
        return sum(mult for _, mult in self.groups)

    def voters(self) -> Iterator[Ranking]:
        """Yield each voter's ranking, multiplicities expanded, in index order."""
        for ranking, mult in self.groups:
            for _ in range(mult):
                yield ranking

    def voter_ranking(self, i: int) -> Ranking:
        """Return voter ``i``'s ranking (1-based expanded index)."""
        return self.groups[self._voter_group(i)][0]

    def _voter_group(self, i: int) -> int:
        """The index of the group holding voter ``i`` (1-based expanded index)."""
        if i >= 1:
            seen = 0
            for g, (_, mult) in enumerate(self.groups):
                seen += mult
                if i <= seen:
                    return g
        raise IndexError(f"voter index {i} out of range 1..{self.n}")


def _derived(
    candidates: tuple[str, ...],
    groups: tuple[tuple[Ranking, int], ...],
    core: _Core | None = None,
) -> Profile:
    """A profile known to be valid (derived from a valid one, or checked as
    it was read): the checks of ``__post_init__`` are skipped.  ``core``,
    when given, is the profile's core, already built."""
    profile = object.__new__(Profile)
    object.__setattr__(profile, "candidates", candidates)
    object.__setattr__(profile, "groups", groups)
    if core is not None:
        profile.__dict__["_core"] = core  # ahead of the cached_property
    return profile


def _codes(candidates: Iterable[str]) -> dict[str, int]:
    """Candidate name -> code, its place in ``candidates``."""
    return {c: k for k, c in enumerate(candidates)}


def _tally(pairs: Iterable[tuple]) -> tuple[tuple, tuple[int, ...], list[int]]:
    """The distinct keys of ``(key, weight)`` pairs in order of first
    appearance, the summed weight of each, and the key index of each pair."""
    slot_of: dict = {}
    weights: list[int] = []
    slots: list[int] = []
    for key, weight in pairs:
        slot = slot_of.setdefault(key, len(weights))
        if slot == len(weights):
            weights.append(weight)
        else:
            weights[slot] += weight
        slots.append(slot)
    return tuple(slot_of), tuple(weights), slots


def _derive(profile: Profile, keep: Sequence[int], names: tuple[str, ...]) -> Profile:
    """The profile cut down to its codes ``keep``, code ``keep[k]`` becoming
    candidate ``names[k]`` (see the module docstring).

    Cut rankings that are equal merge, in the order the base first holds
    them, which is the order the groups first hold them.
    """
    base = profile._core
    core = _Core.__new__(_Core)
    core.ballots, core.weights, moved = _tally(zip(base.cut(keep), base.weights))
    core.slots = tuple(map(moved.__getitem__, base.slots))
    if base._rows is None:
        core._rows = None
    elif len(keep) == 1:
        core._rows = ((0,),)  # itemgetter of one key returns the item, not a tuple
    else:
        pick = itemgetter(*keep)
        core._rows = tuple(map(pick, pick(base._rows)))
    named = [tuple(map(names.__getitem__, ballot)) for ballot in core.ballots]
    groups = tuple((named[slot], mult) for slot, (_, mult) in zip(core.slots, profile.groups))
    return _derived(names, groups, core)


class _Core:
    """A profile's rankings in candidate codes (see the module docstring).

    Attributes:
        ballots: the distinct rankings as code sequences, top first, in order
            of first appearance, so ``ballots[0]`` is voter 1's.
        weights: the number of voters holding each distinct ranking.
        slots: for each public group, the index of its ranking in ``ballots``.

    The margin rows are set by :func:`_derive` when it can cut them from a
    base's, and are otherwise counted on first read and kept.
    """

    __slots__ = ("ballots", "weights", "slots", "_rows")

    def __init__(self, profile: Profile) -> None:
        rankings, self.weights, slots = _tally(profile.groups)
        code_of = _codes(profile.candidates)
        code = bytes if len(code_of) <= 256 else tuple
        self.ballots = tuple(code(map(code_of.__getitem__, ranking)) for ranking in rankings)
        self.slots = tuple(slots)
        self._rows: tuple[tuple[int, ...], ...] | None = None

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Margin rows: ``rows[a][b]`` is margin(a, b) by candidate code."""
        if self._rows is None:
            self._rows = self._margins()
        return self._rows

    def _margins(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.ballots[0])
        n = sum(self.weights)
        w = n.bit_length() + 1  # a field holds any count 0..n
        fields = [1 << (w * c) for c in range(m)]
        packed = [0] * m  # field b of packed[a]: voters ranking a above b
        for ballot, weight in zip(self.ballots, self.weights):
            step = fields if weight == 1 else [f * weight for f in fields]
            below = 0  # the fields of the candidates passed so far, times weight
            for c in reversed(ballot):
                packed[c] += below
                below += step[c]
        mask = (1 << w) - 1
        rows = []
        for a, wins in enumerate(packed):
            row = []
            for _ in range(m):  # each voter ranks a above b or b above a
                row.append(2 * (wins & mask) - n)
                wins >>= w
            row[a] = 0
            rows.append(tuple(row))
        return tuple(rows)

    def cut(self, keep: Sequence[int]) -> list:
        """Each distinct ranking cut to the codes ``keep``, ``keep[k]`` becoming ``k``."""
        if isinstance(self.ballots[0], bytes):
            table = bytes.maketrans(bytes(keep), bytes(range(len(keep))))
            drop = bytes(set(range(len(self.ballots[0]))).difference(keep))
            return [ballot.translate(table, drop) for ballot in self.ballots]
        code = bytes if len(keep) <= 256 else tuple
        new = {c: k for k, c in enumerate(keep)}
        return [code(new[c] for c in ballot if c in new) for ballot in self.ballots]

    def positions(self, keep: Sequence[int] | None = None) -> list:
        """For each distinct ranking, cut to the codes ``keep`` when given, the
        position of each of voter 1's candidates on it: ``positions()[k][x]``
        places voter 1's x-th choice.  Computed afresh on each call rather
        than kept.  It holds no names or codes, so, run together into one
        sequence, it keys the table of clone intervals
        (:func:`clonelab.clones._interval_table`) that the tree and the
        transform's walk read; the last places that order a P node's
        children are counted from it too."""
        ballots = self.ballots if keep is None else self.cut(keep)
        first = ballots[0]
        if isinstance(first, bytes):  # code -> position as a translation table
            seats = bytes(range(len(first)))
            return [first.translate(bytes.maketrans(ballot, seats)) for ballot in ballots]
        out = []
        for ballot in ballots:
            where = sorted(range(len(ballot)), key=ballot.__getitem__)  # code -> position
            out.append(tuple(map(where.__getitem__, first)))
        return out


# ---------------------------------------------------------------------------
# text format


def _reject_reserved(lineno: int, names: Iterable[str]) -> None:
    """Refuse '+' in names: :func:`block_name` joins block members with it."""
    for c in names:
        if "+" in c:
            raise ProfileParseError(f"line {lineno}: '+' in candidate {c!r} is reserved for blocks")


def parse_profile(text: str) -> Profile:
    """Parse profile text into a :class:`Profile`.

    Raises:
        ProfileParseError: on an empty file, malformed line, non-positive
            multiplicity, a candidate name containing the reserved ``+``, or
            any candidate mismatch between ballots and the declared (or
            inferred) candidate list.
    """
    header: tuple[str, ...] | None = None
    names: dict[str, str] = {}  # token as written -> the one shared copy of its name
    slot_of: dict[str, int] = {}  # ballot text as written -> its slot in the core
    coded: dict = {}  # coded ranking -> slot: one slot however the ranking is spaced
    named: list[Ranking] = []  # slot -> the one name tuple its groups share
    weights, slots, mults = [], [], []  # per slot its weight; per line its slot and count

    def shared(token: str) -> str:
        name = token.strip()
        return names.setdefault(token, names.setdefault(name, name))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None and not slots and line.lower().startswith("candidates:"):
            header_names = [c.strip() for c in line.split(":", 1)[1].split(",")]
            if any(not c for c in header_names):
                raise ProfileParseError(f"line {lineno}: empty candidate name in header")
            _reject_reserved(lineno, header_names)
            header = tuple(map(shared, header_names))
            continue
        if ":" not in line:
            raise ProfileParseError(f"line {lineno}: expected '<count>: c1>c2>...'")
        count_part, ballot_part = line.split(":", 1)
        try:
            mult = int(count_part.strip())
        except ValueError:
            raise ProfileParseError(f"line {lineno}: bad multiplicity {count_part.strip()!r}") from None
        if mult <= 0:
            raise ProfileParseError(f"line {lineno}: multiplicity must be positive, got {mult}")
        slot = slot_of.get(ballot_part)
        if slot is None:  # a ballot text not seen before
            tokens = ballot_part.split(">")
            try:  # the extra key keeps a one-token ballot a tuple
                ranking = itemgetter(*tokens, tokens[0])(names)[:-1]
            except KeyError:  # a token not seen before; seen ones passed these checks
                ranking = tuple(map(shared, tokens))
                if "" in ranking:
                    raise ProfileParseError(f"line {lineno}: empty candidate name in ballot")
                if "+" in ballot_part:
                    _reject_reserved(lineno, ranking)
            if not named:  # the first ballot: the candidates are known now
                candidates = header if header is not None else ranking
                code_of, m, cset = _codes(candidates), len(candidates), set(candidates)
                code = bytes if m <= 256 else tuple
                whole = len(cset) == m  # no duplicate candidate, and every ranking a permutation
            if len(ranking) == m and set(ranking) == cset:
                key = code(map(code_of.__getitem__, ranking))
            else:
                key, whole = ranking, False
            slot = slot_of[ballot_part] = coded.setdefault(key, len(named))
            if slot == len(named):
                named.append(ranking)
                weights.append(0)
        weights[slot] += mult
        slots.append(slot)
        mults.append(mult)

    if not slots:
        raise ProfileParseError("no ballots found")
    groups = tuple(zip(map(named.__getitem__, slots), mults))
    if not whole:
        return Profile(candidates=candidates, groups=groups)  # raises the check's error
    core = _Core.__new__(_Core)
    core.ballots, core.weights, core.slots, core._rows = tuple(coded), tuple(weights), tuple(slots), None
    return _derived(candidates, groups, core)


def serialize_profile(profile: Profile) -> str:
    """Render a profile in the text format; ``parse_profile`` inverts this.

    Raises:
        ValueError: for a candidate name that would not read back as itself:
            empty, padded with whitespace, or holding ``,``, ``>``, ``#`` or
            a line break.  A name with ``+`` is written, and the parser
            rejects it.
    """
    for c in profile.candidates:
        if c.splitlines() != [c] or c != c.strip() or any(ch in c for ch in ",>#"):
            raise ValueError(f"candidate {c!r} cannot be written in the text format")
    lines = ["candidates: " + ",".join(profile.candidates)]
    for ranking, mult in profile.groups:
        lines.append(f"{mult}: " + ">".join(ranking))
    return "\n".join(lines) + "\n"


def fixture_names() -> list[str]:
    """Names of the profiles shipped with the package (``P1`` .. ``P9``)."""
    pkg = resources.files("clonelab.fixtures")
    return sorted(p.name[: -len(".profile")] for p in pkg.iterdir() if p.name.endswith(".profile"))


def load_fixture(name: str) -> Profile:
    """Load a shipped example profile by name, e.g. ``load_fixture("P2")``."""
    path = resources.files("clonelab.fixtures").joinpath(f"{name}.profile")
    return parse_profile(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# profile transformations


def _name_collection(names, what: str):
    """``names``, a collection of candidate names; a bare string, whose
    characters would be read as names, raises ValueError."""
    if isinstance(names, str):
        raise ValueError(f"{what} must be a collection of candidate names, not the string {names!r}")
    return names


def remove_candidates(profile: Profile, to_remove: Iterable[str]) -> Profile:
    """Delete candidates from every ballot, keeping groups distinct.

    Identical post-deletion rankings are deliberately not merged so that
    voter indices keep pointing at the same people.
    """
    gone = frozenset(_name_collection(to_remove, "to_remove"))
    unknown = gone - set(profile.candidates)
    if unknown:
        raise ValueError(f"cannot remove unknown candidate(s) {sorted(unknown)}")
    return _without(profile, gone)


def restrict(profile: Profile, keep: Iterable[str]) -> Profile:
    """Restrict every ballot to the candidates in ``keep``."""
    kept = frozenset(_name_collection(keep, "keep"))
    names = set(profile.candidates)
    unknown = kept - names
    if unknown:
        raise ValueError(f"cannot keep unknown candidate(s) {sorted(unknown)}")
    return _without(profile, names - kept)


def _without(profile: Profile, gone: set[str] | frozenset[str]) -> Profile:
    """The profile minus ``gone``, a set of its own candidates."""
    keep = [k for k, c in enumerate(profile.candidates) if c not in gone]
    if not keep:
        raise ValueError("cannot remove every candidate")
    return _derive(profile, keep, tuple(map(profile.candidates.__getitem__, keep)))


def block_name(members: Iterable[str]) -> str:
    """Canonical name of a candidate block: members sorted and '+'-joined."""
    return "+".join(sorted(members))


def summarize(profile: Profile, decomposition: Iterable[frozenset[str]]) -> Profile:
    """Collapse each block of a partition into one meta-candidate.

    Every block must occupy consecutive positions in every ballot; the block
    keeps each voter's position and is named by :func:`block_name`.  Meta
    candidates appear in the order voter 1 ranks the blocks.

    Raises:
        ValueError: if the blocks do not partition the candidates, some
            block is not consecutive on some ballot, or the decomposition or
            a block is a bare string.
    """
    parts = _name_collection(decomposition, "decomposition")
    blocks = [frozenset(_name_collection(b, "a block")) for b in parts]
    flat = [c for b in blocks for c in b]
    if not all(blocks) or len(flat) != len(set(flat)) or set(flat) != set(profile.candidates):
        raise ValueError("blocks must partition the candidate set")
    core = profile._core
    code_of = _codes(profile.candidates)
    owner = [0] * profile.m  # candidate code -> the number of its block
    for number, members in enumerate(blocks):
        for c in members:
            owner[code_of[c]] = number
    for ballot in core.ballots:
        run = 0  # positions left in the block currently being crossed
        for c in ballot:
            if run == 0:
                block = owner[c]
                run = len(blocks[block])
            elif owner[c] != block:
                ranking = tuple(map(profile.candidates.__getitem__, ballot))
                name = block_name(blocks[block])
                raise ValueError(f"block {name!r} is not consecutive in ballot {ranking}")
            run -= 1
    first = core.ballots[0]
    keep = [c for k, c in enumerate(first) if k == 0 or owner[c] != owner[first[k - 1]]]
    return _derive(profile, keep, tuple(block_name(blocks[owner[c]]) for c in keep))


def reverse_profile(profile: Profile) -> Profile:
    """Reverse every ballot (last place becomes first)."""
    groups = tuple((ranking[::-1], mult) for ranking, mult in profile.groups)
    return _derived(profile.candidates, groups)


def add_voter(profile: Profile, ranking: Sequence[str]) -> Profile:
    """Append one voter with the given ranking; they become voter ``n + 1``.

    Only the new ballot is checked (a bad one raises as :class:`Profile`
    would).  The joined profile's core is the base's with that ballot
    counted once more: its ranking's weight goes up by one, or it is
    appended with weight 1, and the new group gets its slot.  When the base
    has margin rows, the joined rows are those plus the ballot's ±1 on each
    pair; otherwise they are counted on first read.  The base's rows are
    never counted here.
    """
    ranking = tuple(ranking)
    groups = profile.groups + ((ranking, 1),)
    code_of = _codes(profile.candidates)
    if len(ranking) != len(code_of) or code_of.keys() != set(ranking):
        return Profile(profile.candidates, groups)  # raises the check's error
    base = profile._core
    ballot = (bytes if len(code_of) <= 256 else tuple)(map(code_of.__getitem__, ranking))
    core = _Core.__new__(_Core)
    if ballot in base.ballots:
        slot = base.ballots.index(ballot)
        core.ballots = base.ballots
        core.weights = (*base.weights[:slot], base.weights[slot] + 1, *base.weights[slot + 1 :])
    else:
        slot = len(base.ballots)
        core.ballots = (*base.ballots, ballot)
        core.weights = (*base.weights, 1)
    core.slots = (*base.slots, slot)
    core._rows = None
    if base._rows is not None:
        rows = [()] * len(ballot)
        step = [1] * len(ballot)  # top to bottom: -1 for the candidates passed, +1 below
        for c in ballot:
            step[c] = 0
            rows[c] = tuple(map(add, base._rows[c], step))
            step[c] = -1
        core._rows = tuple(rows)
    return _derived(profile.candidates, groups, core)


def replace_voter(profile: Profile, i: int, ranking: Sequence[str]) -> Profile:
    """Give voter ``i`` (1-based) a new ranking, leaving everyone else in place.

    The containing multiplicity group is split so all other voter indices
    keep their rankings.
    """
    new_ranking = tuple(ranking)
    if not 1 <= i <= profile.n:
        raise IndexError(f"voter index {i} out of range 1..{profile.n}")
    groups: list[tuple[Ranking, int]] = []
    seen = 0
    for old, mult in profile.groups:
        if seen + mult < i or seen >= i:
            groups.append((old, mult))
        else:
            before = i - 1 - seen
            after = mult - before - 1
            if before:
                groups.append((old, before))
            groups.append((new_ranking, 1))
            if after:
                groups.append((old, after))
        seen += mult
    return Profile(candidates=profile.candidates, groups=tuple(groups))


# ---------------------------------------------------------------------------
# pairwise comparisons


@dataclass(frozen=True)
class _PairView:
    """A profile's rows by candidate code, like the margin rows, read by
    name; views of one class compare by their candidates and rows."""

    candidates: tuple[str, ...]
    _rows: tuple[tuple[int, ...], ...]
    _index: dict[str, int] = field(repr=False, compare=False)

    def _at(self, a: str, b: str) -> int:
        """The entry of the pair (a, b) of candidate names; 0 when ``a == b``."""
        if a == b:
            return 0
        return self._rows[self._index[a]][self._index[b]]

    def as_dict(self) -> dict[tuple[str, str], int]:
        cands = self.candidates
        return {
            (a, b): w
            for a, row in zip(cands, self._rows)
            for b, w in zip(cands, row)
            if a != b
        }


class MajorityMatrix(_PairView):
    """All pairwise majority margins of a profile, a view of its margin rows.

    ``margin(a, b)`` is (# voters preferring a to b) − (# preferring b to a);
    the matrix is antisymmetric with a zero diagonal.
    """

    margin = _PairView._at

    def defeats(self, a: str, b: str) -> bool:
        """True when a majority strictly prefers ``a`` to ``b``."""
        return self.margin(a, b) > 0


def majority_matrix(profile: Profile) -> MajorityMatrix:
    """Every pairwise margin of the profile, computed once per profile."""
    return MajorityMatrix(
        candidates=profile.candidates, _rows=profile._core.rows, _index=_codes(profile.candidates)
    )
