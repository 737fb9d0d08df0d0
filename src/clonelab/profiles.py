"""Ranked ballot profiles and the handful of operations everything else builds on.

A profile stores complete strict rankings in multiplicity groups, e.g. four
voters sharing ``b>c>a2>a1`` occupy one group with multiplicity 4.  Voter
indices are 1-based positions in the expanded list of ballots (group order,
then within-group repetition), so voter-indexed rules have a stable meaning
after any of the transformations here: none of them merge or reorder groups.

Under the public groups each profile keeps a private integer core, built on
first use and then kept with the profile (it takes no part in equality,
hashing or repr).  It codes each candidate by its place in ``candidates``,
holds the distinct rankings as code sequences with their voter counts, in
order of first appearance (voter 1's ranking first), and the margin rows
every pairwise rule reads.  The rows come from a packed-integer kernel: with
a field of ``w = n.bit_length() + 1`` bits per candidate, each distinct
ranking is walked bottom to top, adding the weighted sum of the fields of
the candidates already passed to the row of the current one, so one big-int
addition per ballot position counts a candidate's wins over everyone below
it (O(k·m) additions over k distinct rankings).  Deduplication lives only in
the core: the groups, and so the voter indices, are never merged.

A restriction (:func:`restrict`, :func:`remove_candidates`) and a PQ-tree
block summary carry public groups like any profile, and their core too is
built only when first read.  Their margin rows are read off their base's:
when the base has its rows at derivation (or can read them off its own
base), the derived profile keeps just those rows and its kept codes (one
representative per block for a summary), and its rows are read on first use
as the submatrix there; otherwise they are counted afresh.  A restriction's
core is otherwise built from its groups, as any profile's.  A summary's is
read off the base core, which the summary holds until then: each of the
base's k distinct code rankings, already cut down to the blocks, is
renumbered, equal results merge with their weights summed, and the group
slots are remapped.  That costs under half of hashing the summary's
block-name rankings; for a restriction the cut costs what the hashing does,
so it is not done.  Nothing of the core is built at derivation, so a
consumer that reads only the groups pays nothing for it.

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
        sub = self.__dict__.pop("_sub", None)
        view = self.__dict__.pop("_view_of", None)
        if view is None:
            return _Core(self, sub)
        return _Core.view(self.candidates, *view, sub)

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
    sub: tuple[tuple[tuple[int, ...], ...], Sequence[int]] | None = None,
    view: tuple[_Core, list] | None = None,
) -> Profile:
    """A profile built from a valid one by a transformation that keeps it
    valid: the checks of ``__post_init__`` are skipped.

    ``sub`` is ``(rows, codes)`` (see :func:`_rows_at`) when this profile's
    margin rows are ``rows`` at ``codes``.  ``view`` is ``(base, cut)`` when
    group g's ranking is ``cut[base.slots[g]]`` in this profile's codes
    (:meth:`_Core.view`); the profile lets go of both once its core is built."""
    profile = object.__new__(Profile)
    object.__setattr__(profile, "candidates", candidates)
    object.__setattr__(profile, "groups", groups)
    if sub is not None:
        profile.__dict__["_sub"] = sub
    if view is not None:
        profile.__dict__["_view_of"] = view
    return profile


def _rows_at(profile: Profile, keep: Sequence[int]) -> tuple | None:
    """Where the margin rows of ``profile`` cut down to its codes ``keep``
    can be read, as ``(rows, codes)``: at ``keep`` in its own rows, or in the
    rows its own are to be read off; None when it has neither yet."""
    core = profile.__dict__.get("_core")
    if core is not None and core._rows is not None:
        return core._rows, keep
    sub = profile.__dict__.get("_sub") if core is None else core._sub
    if sub is None:
        return None
    rows, codes = sub
    return rows, [codes[k] for k in keep]


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


def _cut(core: _Core, keep: Sequence[int]) -> list:
    """Each distinct ballot of ``core`` cut down to the codes in ``keep``,
    code ``keep[k]`` renumbered k (bytes for at most 256 codes)."""
    if isinstance(core.ballots[0], bytes):
        table = bytes.maketrans(bytes(keep), bytes(range(len(keep))))
        drop = bytes(set(range(len(core.index))).difference(keep))
        return [ballot.translate(table, drop) for ballot in core.ballots]
    code = bytes if len(keep) <= 256 else tuple
    new = {c: k for k, c in enumerate(keep)}
    return [code(new[c] for c in ballot if c in new) for ballot in core.ballots]


class _Core:
    """A profile's rankings in integer codes (see the module docstring).

    Attributes:
        index: candidate name -> code, its place in ``candidates``.
        ballots: the distinct rankings as code sequences, top first, in order
            of first appearance, so ``ballots[0]`` is voter 1's.
        weights: the number of voters holding each distinct ranking.
        slots: for each public group, the index of its ranking in ``ballots``.

    The margin rows are computed, or read off a base's (``_sub``, see
    :func:`_rows_at`), on first use and kept.
    """

    __slots__ = ("index", "ballots", "weights", "slots", "_rows", "_sub")

    def __init__(self, profile: Profile, sub: tuple | None = None) -> None:
        rankings, self.weights, slots = _tally(profile.groups)
        index = {c: k for k, c in enumerate(profile.candidates)}
        code = bytes if len(index) <= 256 else tuple
        self.index = index
        self.ballots = tuple(code(map(index.__getitem__, ranking)) for ranking in rankings)
        self.slots = tuple(slots)
        self._rows: tuple[tuple[int, ...], ...] | None = None
        self._sub = sub  # (rows of a base, the codes kept from it), until read

    @classmethod
    def view(cls, candidates: tuple[str, ...], base: _Core, cut: list, sub: tuple | None) -> _Core:
        """The core of a profile whose group g ranks ``cut[base.slots[g]]``,
        in codes of ``candidates``.

        Cut rankings that are equal merge, in the order the base first holds
        them, which is the order the groups first hold them.  ``sub`` is as
        for :meth:`__init__`.
        """
        core = cls.__new__(cls)
        core.ballots, core.weights, moved = _tally(zip(cut, base.weights))
        core.slots = tuple(map(moved.__getitem__, base.slots))
        core.index = {c: k for k, c in enumerate(candidates)}
        core._rows = None
        core._sub = sub
        return core

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Margin rows: ``rows[a][b]`` is margin(a, b) by candidate code."""
        if self._rows is None:
            if self._sub is None:
                self._rows = self._margins()
            else:
                base_rows, keep = self._sub
                self._rows = tuple(
                    tuple(map(row.__getitem__, keep)) for row in map(base_rows.__getitem__, keep)
                )
                self._sub = None
        return self._rows

    def _margins(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.index)
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

    def positions(self) -> list:
        """For each distinct ranking, the position of each of voter 1's
        candidates on it: ``positions()[k][x]`` places voter 1's x-th choice.
        Computed afresh on each call rather than kept: only a clone table and
        a tree's last-place counts read it, while they are built."""
        first = self.ballots[0]
        if isinstance(first, bytes):  # code -> position as a translation table
            seats = bytes(range(len(first)))
            return [first.translate(bytes.maketrans(ballot, seats)) for ballot in self.ballots]
        out = []
        for ballot in self.ballots:
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
    raw_groups: list[tuple[Ranking, int]] = []
    names: dict[str, str] = {}  # token as written -> the one shared copy of its name

    def shared(token: str) -> str:
        name = token.strip()
        return names.setdefault(token, names.setdefault(name, name))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None and not raw_groups and line.lower().startswith("candidates:"):
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
        tokens = ballot_part.split(">")
        ranking = tuple(map(names.get, tokens))
        if None in ranking:  # a token not seen before
            ranking = tuple(map(shared, tokens))
        if "" in ranking:
            raise ProfileParseError(f"line {lineno}: empty candidate name in ballot")
        if "+" in ballot_part:
            _reject_reserved(lineno, ranking)
        raw_groups.append((ranking, mult))

    if not raw_groups:
        raise ProfileParseError("no ballots found")
    candidates = header if header is not None else raw_groups[0][0]
    try:
        return Profile(candidates=candidates, groups=tuple(raw_groups))
    except ProfileParseError:
        raise
    except ValueError as exc:  # defensive: dataclass machinery
        raise ProfileParseError(str(exc)) from exc


def serialize_profile(profile: Profile) -> str:
    """Render a profile in the text format; ``parse_profile`` inverts this."""
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


def remove_candidates(profile: Profile, to_remove: Iterable[str]) -> Profile:
    """Delete candidates from every ballot, keeping groups distinct.

    Identical post-deletion rankings are deliberately not merged so that
    voter indices keep pointing at the same people.
    """
    gone = frozenset(to_remove)
    unknown = gone - set(profile.candidates)
    if unknown:
        raise ValueError(f"cannot remove unknown candidate(s) {sorted(unknown)}")
    return _without(profile, gone)


def restrict(profile: Profile, keep: Iterable[str]) -> Profile:
    """Restrict every ballot to the candidates in ``keep``."""
    kept = frozenset(keep)
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
    return _kept(profile, keep)


def _kept(profile: Profile, keep: Sequence[int]) -> Profile:
    """The profile restricted to the candidates with codes ``keep``, in
    ascending order; its margin rows are read off the profile's when it has
    them (:func:`_rows_at`)."""
    remaining = tuple(map(profile.candidates.__getitem__, keep))
    kept = frozenset(remaining).__contains__
    groups = tuple((tuple(filter(kept, ranking)), mult) for ranking, mult in profile.groups)
    return _derived(remaining, groups, _rows_at(profile, keep))


def block_name(members: Iterable[str]) -> str:
    """Canonical name of a candidate block: members sorted and '+'-joined."""
    return "+".join(sorted(members))


def summarize(profile: Profile, decomposition: Iterable[frozenset[str]]) -> Profile:
    """Collapse each block of a partition into one meta-candidate.

    Every block must occupy consecutive positions in every ballot; the block
    keeps each voter's position and is named by :func:`block_name`.  Meta
    candidates appear in the order voter 1 ranks the blocks.

    Raises:
        ValueError: if the blocks do not partition the candidates or some
            block is not consecutive on some ballot.
    """
    blocks = [frozenset(b) for b in decomposition]
    flat = [c for b in blocks for c in b]
    if len(flat) != len(set(flat)) or set(flat) != set(profile.candidates):
        raise ValueError("blocks must partition the candidate set")
    owner = {c: block_name(b) for b in blocks for c in b}
    size = {block_name(b): len(b) for b in blocks}

    groups: list[tuple[Ranking, int]] = []
    for ranking, mult in profile.groups:
        seq: list[str] = []
        run = 0  # positions left in the block currently being crossed
        for c in ranking:
            name = owner[c]
            if run == 0:
                seq.append(name)
                run = size[name]
            elif name != seq[-1]:
                raise ValueError(f"block {seq[-1]!r} is not consecutive in ballot {ranking}")
            run -= 1
        groups.append((tuple(seq), mult))
    return _derived(groups[0][0], tuple(groups))


def reverse_profile(profile: Profile) -> Profile:
    """Reverse every ballot (last place becomes first)."""
    groups = tuple((ranking[::-1], mult) for ranking, mult in profile.groups)
    return _derived(profile.candidates, groups)


def add_voter(profile: Profile, ranking: Sequence[str]) -> Profile:
    """Append one voter with the given ranking; they become voter ``n + 1``."""
    return Profile(
        candidates=profile.candidates,
        groups=profile.groups + ((tuple(ranking), 1),),
    )


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
class MajorityMatrix:
    """All pairwise majority margins of a profile, a view of its margin rows.

    ``margin(a, b)`` is (# voters preferring a to b) − (# preferring b to a);
    the matrix is antisymmetric with a zero diagonal.
    """

    candidates: tuple[str, ...]
    _rows: tuple[tuple[int, ...], ...]
    _index: dict[str, int] = field(repr=False, compare=False)

    def margin(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return self._rows[self._index[a]][self._index[b]]

    def defeats(self, a: str, b: str) -> bool:
        """True when a majority strictly prefers ``a`` to ``b``."""
        return self.margin(a, b) > 0

    def as_dict(self) -> dict[tuple[str, str], int]:
        cands = self.candidates
        return {
            (a, b): w
            for a, row in zip(cands, self._rows)
            for b, w in zip(cands, row)
            if a != b
        }


def majority_matrix(profile: Profile) -> MajorityMatrix:
    """Every pairwise margin of the profile, computed once per profile."""
    core = profile._core
    return MajorityMatrix(candidates=profile.candidates, _rows=core.rows, _index=core.index)
