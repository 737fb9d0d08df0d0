"""Seeded generators of profile text.

The benchmark hands clonelab nothing but the text these functions return,
so the program is measured exactly as the CLI sees a file.  Every function
takes a ``random.Random`` and is deterministic given its state.
"""

from __future__ import annotations

import random


def names(m: int) -> list[str]:
    """Candidate names ``c01``, ``c02``, ...; zero-padded so they sort by index."""
    return [f"c{k:02d}" for k in range(1, m + 1)]


def impartial_ballot(rng: random.Random, cands: list[str]) -> list[str]:
    """One impartial-culture ballot: a uniformly random permutation."""
    return rng.sample(cands, len(cands))


def planted_tree(rng: random.Random, cands: list[str]):
    """A random laminar family of clone blocks over ``cands``.

    Returns a nested structure: a leaf is a candidate name, an internal node
    is ``("P" | "Q", [children])``.  The root always has at least two
    children; blocks are split until they hold one candidate.
    """
    if len(cands) == 1:
        return cands[0]
    k = rng.randint(2, min(4, len(cands)))
    cuts = sorted(rng.sample(range(1, len(cands)), k - 1))
    parts = [cands[a:b] for a, b in zip([0, *cuts], [*cuts, len(cands)])]
    return (rng.choice("PQ"), [planted_tree(rng, p) for p in parts])


def planted_ballot(rng: random.Random, tree) -> list[str]:
    """A ballot that keeps every block of ``tree`` contiguous.

    P blocks are ordered at random; Q blocks are read forward or backward.
    """
    if isinstance(tree, str):
        return [tree]
    kind, children = tree
    if kind == "P":
        children = rng.sample(children, len(children))
    elif rng.random() < 0.5:
        children = children[::-1]
    return [c for child in children for c in planted_ballot(rng, child)]


def render(cands: list[str], groups: list[tuple[list[str], int]]) -> str:
    """Profile text in the format ``clonelab.parse_profile`` reads."""
    lines = ["candidates: " + ",".join(cands)]
    lines += [f"{count}: " + ">".join(ballot) for ballot, count in groups]
    return "\n".join(lines) + "\n"


def ballots(rng: random.Random, kind: str, cands: list[str], k: int) -> list[list[str]]:
    """``k`` ballots of one kind: impartial, planted, string or two-ballot.

    ``string`` draws each ballot as one fixed ranking or its reverse;
    ``two-ballot`` draws from two independent random rankings.
    """
    if kind == "impartial":
        return [impartial_ballot(rng, cands) for _ in range(k)]
    if kind == "planted":
        tree = planted_tree(rng, rng.sample(cands, len(cands)))
        return [planted_ballot(rng, tree) for _ in range(k)]
    if kind == "string":
        pool = [impartial_ballot(rng, cands)]
        pool.append(pool[0][::-1])
    elif kind == "two-ballot":
        pool = [impartial_ballot(rng, cands), impartial_ballot(rng, cands)]
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return [list(rng.choice(pool)) for _ in range(k)]


def profile_text(rng: random.Random, kind: str, m: int, n: int, lines: int | None = None) -> str:
    """Text of an ``m``-candidate, ``n``-voter profile of the given kind.

    With ``lines=None`` every voter gets a line of their own; otherwise the
    ``n`` voters are spread over at most ``lines`` lines with counts.
    """
    cands = names(m)
    if lines is None:
        return render(cands, [(b, 1) for b in ballots(rng, kind, cands, n)])
    pool = ballots(rng, kind, cands, lines)
    counts = [1] * len(pool)
    for _ in range(n - len(pool)):
        counts[rng.randrange(len(pool))] += 1
    return render(cands, list(zip(pool, counts)))
