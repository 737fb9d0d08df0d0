"""Independent reference implementations used only by tests.

Everything here is written directly from first principles — subset
enumeration, path enumeration, literal process simulation — deliberately
avoiding the package's own algorithms so that agreement is evidence.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain, combinations, count, permutations, product

from clonelab.clones import EnumerationCapExceeded
from clonelab.games import DROP, RUN
from clonelab.pqtree import PQNode, _reading_order, build_pqtree
from clonelab.profiles import (
    Profile,
    ProfileParseError,
    _reject_reserved,
    remove_candidates,
    reverse_profile,
)
from clonelab.spf import resolve_spf
from clonelab.transform import resolve_rule


def nonempty_subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(1, len(items) + 1))


def brute_parse(text: str) -> Profile:
    """Profile text read line by line, every line tokenized and named, then
    validated as a whole by ``Profile``: the parser as it was before it
    read each distinct ballot text once into the integer core."""
    header: tuple[str, ...] | None = None
    raw_groups: list[tuple[tuple[str, ...], int]] = []
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
    return Profile(candidates=candidates, groups=tuple(raw_groups))


def brute_restrict(profile: Profile, keep) -> Profile:
    """Every ballot filtered name by name to ``keep``, validated afresh as a
    new profile: candidates in the profile's order, groups never merged."""
    kept = set(keep)
    return Profile(
        candidates=tuple(c for c in profile.candidates if c in kept),
        groups=tuple((tuple(c for c in r if c in kept), mult) for r, mult in profile.groups),
    )


def brute_summarize(profile: Profile, blocks) -> Profile:
    """Each block collapsed, ballot by ballot, into its members sorted and
    '+'-joined: a ballot's run of one block's names becomes one name.  The
    candidates are voter 1's collapsed ballot.  Raises ValueError when some
    block is not one run on some ballot."""
    name = {c: "+".join(sorted(block)) for block in blocks for c in block}
    groups = []
    for ranking, mult in profile.groups:
        named = [name[c] for c in ranking]
        runs = tuple(x for k, x in enumerate(named) if k == 0 or x != named[k - 1])
        if len(runs) != len(set(runs)):
            raise ValueError(f"a block is split in ballot {ranking}")
        groups.append((runs, mult))
    return Profile(candidates=groups[0][0], groups=tuple(groups))


def brute_clone_sets(profile: Profile) -> frozenset[frozenset[str]]:
    """Check contiguity of every non-empty candidate subset on every ballot."""
    out = set()
    for subset in nonempty_subsets(profile.candidates):
        members = set(subset)
        ok = True
        for ranking, _ in profile.groups:
            hits = [k for k, c in enumerate(ranking) if c in members]
            if max(hits) - min(hits) + 1 != len(members):
                ok = False
                break
        if ok:
            out.add(frozenset(members))
    return frozenset(out)


_recent_clone_sets = lru_cache(maxsize=16)(brute_clone_sets)  # a profile's pairs share one scan


def brute_clone_metric(profile: Profile, a: str, b: str) -> int:
    """The clone distance by definition: the size of the smallest set of
    :func:`brute_clone_sets` holding both ``a`` and ``b``, minus one."""
    return min(len(k) for k in _recent_clone_sets(profile) if a in k and b in k) - 1


def brute_pqtree(profile: Profile) -> PQNode:
    """The PQ-tree read off the definition, over :func:`brute_clone_sets`.

    A clone set is strong when no clone set properly overlaps it.  A node's
    children are its maximal strong proper subsets, in voter 1's order.  The
    node is Q exactly when the union of every two adjacent children is a
    clone set; it reads ``forward`` when at least as many voters run through
    the children in that order as in its mirror.  P children are arranged by
    the number of voters ranking the child last among the node's members,
    ties by block name.
    """
    clones = brute_clone_sets(profile)
    strong = [k for k in clones if all(not k & o or k <= o or o <= k for o in clones)]
    first = profile.groups[0][0]

    def name(block) -> str:
        return "+".join(sorted(block))

    def build(members: frozenset[str]) -> PQNode:
        if len(members) == 1:
            return PQNode(members=members, kind="leaf")
        inside = [s for s in strong if s < members]
        kids = [s for s in inside if not any(s < t for t in inside)]
        kids.sort(key=lambda s: min(first.index(c) for c in s))
        if all(kids[i] | kids[i + 1] in clones for i in range(len(kids) - 1)):
            stored = list(range(len(kids)))
            forward = backward = 0
            for ranking, mult in profile.groups:
                seq: list[int] = []
                for c in ranking:
                    if c in members:
                        block = next(i for i, s in enumerate(kids) if c in s)
                        if not seq or seq[-1] != block:
                            seq.append(block)
                if seq == stored:
                    forward += mult
                elif seq == stored[::-1]:
                    backward += mult
                else:
                    raise AssertionError(f"ballot {ranking} breaks the string {members}")
            return PQNode(
                members=members,
                kind="Q",
                children=tuple(build(s) for s in kids),
                orientation="forward" if forward >= backward else "reverse",
                tie=forward == backward,
            )
        last = {name(s): 0 for s in kids}
        for ranking, mult in profile.groups:
            bottom = [c for c in ranking if c in members][-1]
            last[name(next(s for s in kids if bottom in s))] += mult
        kids.sort(key=lambda s: (last[name(s)], name(s)))
        return PQNode(members=members, kind="P", children=tuple(build(s) for s in kids))

    return build(frozenset(profile.candidates))


def brute_cc_transform(profile: Profile, rule) -> tuple[frozenset[str], list[dict]]:
    """The clone-collapsing transform walked over :func:`brute_pqtree`.

    Breadth-first from the root, P children in stored order.  At each
    internal node the rule is shown the blocks in play, the node's children
    at a P node and the first two in majority reading order at a Q node
    (stored order unless it reads ``reverse`` and not ``tie``), as the
    :func:`brute_summarize`d :func:`brute_restrict`ion of the profile to
    their members.  Returns the winners and one record per visited node, in
    the shape of ``cc_transform``'s trace.
    """
    f = resolve_rule(rule)
    winners: set[str] = set()
    trace = []
    queue = deque([brute_pqtree(profile)])
    while queue:
        node = queue.popleft()
        if node.kind == "leaf":
            winners |= node.members
            continue
        name = {ch.members: "+".join(sorted(ch.members)) for ch in node.children}
        reading = node.children
        if node.kind == "Q" and node.orientation == "reverse" and not node.tie:
            reading = reading[::-1]
        shown = reading if node.kind == "P" else reading[:2]
        members = frozenset().union(*(ch.members for ch in shown))
        summary = brute_summarize(brute_restrict(profile, members), [ch.members for ch in shown])
        chosen = f(summary)
        if node.kind == "P":
            queue.extend(ch for ch in node.children if name[ch.members] in chosen)
        elif chosen == {name[reading[0].members]}:
            queue.append(reading[0])
        elif chosen == {name[reading[1].members]}:
            queue.append(reading[-1])
        else:
            queue.extend(node.children)
        trace.append({"node": sorted(node.members), "kind": node.kind,
                      "blocks": list(summary.candidates), "selected": sorted(chosen),
                      "rule_calls": 1})
    return frozenset(winners), trace


def brute_participation(profile: Profile, rule, clone_aware: bool) -> tuple[bool, dict | None]:
    """Participation by trying every one of the m! joining ballots in
    ``permutations`` order, each joined profile built and validated afresh
    from name tuples; the clone-aware form skips the ballots whose joined
    profile has other clone sets than the profile (:func:`brute_clone_sets`).
    Returns whether it holds and the first failing ballot's witness."""
    f = resolve_rule(rule)
    winners = f(profile)
    structure = brute_clone_sets(profile) if clone_aware else None
    for ranking in permutations(profile.candidates):
        joined = Profile(profile.candidates, profile.groups + ((ranking, 1),))
        if clone_aware and brute_clone_sets(joined) != structure:
            continue
        new_winners = f(joined)
        before = min(winners, key=ranking.index)
        after = min(new_winners, key=ranking.index)
        if ranking.index(before) < ranking.index(after):
            return False, {
                "ballot": list(ranking),
                "favourite_before": before,
                "favourite_after": after,
                "winners": sorted(winners),
                "new_winners": sorted(new_winners),
            }
    return True, None


def brute_isda(profile: Profile, rule, clone_aware: bool) -> tuple[bool, dict | None]:
    """Independence of Smith-dominated alternatives by its definition: each
    candidate outside the Smith set (:func:`brute_smith`), in name order, is
    deleted with ``remove_candidates`` and the rule run on what is left; the
    clone-aware form skips a deletion after which the clone sets
    (:func:`brute_clone_sets`) are not exactly the profile's less the
    deleted candidate.  Returns whether it holds and the first failing
    deletion's witness."""
    f = resolve_rule(rule)
    winners = f(profile)
    top = brute_smith(profile)
    structure = brute_clone_sets(profile)
    for a in sorted(set(profile.candidates) - top):
        reduced = remove_candidates(profile, {a})
        shrunk = {k - {a} for k in structure} - {frozenset()}
        if clone_aware and brute_clone_sets(reduced) != shrunk:
            continue
        reduced_winners = f(reduced)
        if reduced_winners != winners:
            return False, {
                "removed": a,
                "smith_set": sorted(top),
                "winners": sorted(winners),
                "winners_without": sorted(reduced_winners),
            }
    return True, None


def brute_decompositions(profile: Profile, cap: int = 10**6) -> list[tuple[frozenset[str], ...]]:
    """Every partition of the candidates into sets of :func:`brute_clone_sets`,
    grown block by block around the least name left; blocks sorted by their
    sorted names, partitions by that block signature.  Raises
    ``EnumerationCapExceeded`` with the package's message past ``cap``."""
    sets = brute_clone_sets(profile)

    def partitions(rest: frozenset[str]):
        if not rest:
            yield ()
            return
        least = min(rest)
        for block in sets:
            if least in block and block <= rest:
                for tail in partitions(rest - block):
                    yield (block, *tail)

    def signature(blocks):
        return tuple(tuple(sorted(b)) for b in blocks)

    found = sorted(
        (tuple(sorted(blocks, key=lambda b: tuple(sorted(b))))
         for blocks in partitions(frozenset(profile.candidates))),
        key=signature,
    )
    if len(found) > cap:
        raise EnumerationCapExceeded(f"more than {cap} decompositions; raise the cap to enumerate")
    return found


def _brute_collapse(ranking, block, z: str) -> tuple[str, ...]:
    """``ranking`` with ``block`` replaced by ``z`` at its best member's seat."""
    best = next(c for c in ranking if c in block)
    return tuple(z if c == best else c for c in ranking if c == best or c not in block)


def brute_ioc_spf(profile: Profile, spf) -> tuple[bool | None, dict | None, str]:
    """Ranking-level independence of clones as ``check_ioc_spf`` decided it
    when it built every removal as a profile: each member of each
    nontrivial clone set (:func:`brute_clone_sets`) is removed by
    :func:`brute_restrict` and the rule run on what is left, and the rankings
    are collapsed name by name.  Returns ``holds``, the witness and the detail."""
    fn = resolve_spf(spf)
    z = "z" if "z" not in profile.candidates else next(
        f"z{k}" for k in count() if f"z{k}" not in profile.candidates)
    nontrivial = sorted((k for k in brute_clone_sets(profile) if 2 <= len(k) < profile.m),
                        key=lambda k: tuple(sorted(k)))
    try:
        base = fn(profile)
        for k in nontrivial:
            collapsed = frozenset(_brute_collapse(r, k, z) for r in base)
            for a in sorted(k):
                reduced = fn(brute_restrict(profile, set(profile.candidates) - {a}))
                collapsed_reduced = frozenset(_brute_collapse(r, k - {a}, z) for r in reduced)
                if collapsed != collapsed_reduced:
                    return False, {
                        "clone_set": sorted(k),
                        "removed": a,
                        "collapsed": sorted(">".join(r) for r in collapsed),
                        "collapsed_without": sorted(">".join(r) for r in collapsed_reduced),
                    }, ""
    except EnumerationCapExceeded as exc:
        return None, None, str(exc)
    return True, None, ""


def brute_cc_spf(profile: Profile, spf, cap: int = 10**6) -> tuple[bool | None, dict | None, str]:
    """Ranking-level composition consistency as ``check_cc_spf`` decided it
    when it built every block and summary as a profile: for each partition of
    :func:`brute_decompositions`, the rule ranks the :func:`brute_summarize`d
    profile and each block's :func:`brute_restrict`ion, and every splice of
    the two levels must be one of the rule's rankings and each of those a
    splice.  Returns ``holds``, the witness and the detail."""
    fn = resolve_spf(spf)
    try:
        base = fn(profile)
        for blocks in brute_decompositions(profile, cap):
            inner = {"+".join(sorted(b)): fn(brute_restrict(profile, b)) for b in blocks}
            composed = {
                tuple(chain.from_iterable(combo))
                for meta_ranking in fn(brute_summarize(profile, blocks))
                for combo in product(*(inner[meta] for meta in meta_ranking))
            }
            if frozenset(composed) != base:
                return False, {
                    "decomposition": sorted(sorted(b) for b in blocks),
                    "rankings": sorted(">".join(r) for r in base),
                    "composed": sorted(">".join(r) for r in composed),
                }, ""
    except EnumerationCapExceeded as exc:
        return None, None, str(exc)
    return True, None, ""


def brute_margins(profile: Profile) -> dict[tuple[str, str], int]:
    """margin(a, b) for every ordered pair, the diagonal included, counted
    voter by voter from where each ballot places a and b."""
    out = {(a, b): 0 for a in profile.candidates for b in profile.candidates}
    for ranking in profile.voters():
        for a in profile.candidates:
            for b in profile.candidates:
                if ranking.index(a) < ranking.index(b):
                    out[a, b] += 1
                    out[b, a] -= 1
    return out


def brute_smith(profile: Profile) -> frozenset[str]:
    """Smallest set whose members all strictly beat every outsider."""
    m = brute_margins(profile)
    best = frozenset(profile.candidates)
    for subset in nonempty_subsets(profile.candidates):
        inside = set(subset)
        outside = set(profile.candidates) - inside
        if all(m[s, t] > 0 for s in inside for t in outside):
            if len(inside) < len(best):
                best = frozenset(inside)
    return best


def brute_schwartz(profile: Profile) -> frozenset[str]:
    """Union of the inclusion-minimal sets nobody outside strictly beats into."""
    m = brute_margins(profile)
    undominated = []
    for subset in nonempty_subsets(profile.candidates):
        inside = set(subset)
        outside = set(profile.candidates) - inside
        if all(m[t, s] <= 0 for s in inside for t in outside):
            undominated.append(frozenset(inside))
    minimal = [
        s for s in undominated if not any(t < s for t in undominated)
    ]
    out: set[str] = set()
    for s in minimal:
        out |= s
    return frozenset(out)


def brute_split_cycle(profile: Profile) -> frozenset[str]:
    """Enumerate every simple cycle of positive margins by depth-first search,
    drop each cycle's weakest arcs, and keep the candidates left undefeated."""
    m = brute_margins(profile)
    cands = list(profile.candidates)
    doomed: set[tuple[str, str]] = set()

    def extend(path: list[str]) -> None:
        for nxt in cands:
            if m[path[-1], nxt] <= 0:
                continue
            if nxt == path[0]:
                arcs = list(zip(path, path[1:] + path[:1]))
                weakest = min(m[a, b] for a, b in arcs)
                doomed.update(e for e in arcs if m[e] == weakest)
            elif nxt not in path and cands.index(nxt) > cands.index(path[0]):
                extend(path + [nxt])  # each cycle once, from its first member

    for start in cands:
        extend([start])
    return frozenset(
        c
        for c in cands
        if not any(m[d, c] > 0 and (d, c) not in doomed for d in cands)
    )


def brute_path_strength(profile: Profile, a: str, b: str) -> int:
    """Widest path by enumerating every simple path over positive margins."""
    m = brute_margins(profile)
    best = 0
    cands = list(profile.candidates)

    def walk(node: str, seen: set[str], width: int) -> None:
        nonlocal best
        if node == b:
            best = max(best, width)
            return
        for nxt in cands:
            if nxt not in seen and m[node, nxt] > 0:
                walk(nxt, seen | {nxt}, min(width, m[node, nxt]))

    for nxt in cands:
        if nxt != a and m[a, nxt] > 0:
            walk(nxt, {a, nxt}, m[a, nxt])
    return best


# ---------------------------------------------------------------------------
# elimination rules, run round by round on restricted profiles


def brute_first_places(profile: Profile, among=None) -> dict[str, int]:
    """First places among ``among`` (every candidate by default), counted
    voter by voter."""
    pool = set(profile.candidates if among is None else among)
    out = dict.fromkeys(pool, 0)
    for ranking in profile.voters():
        out[next(c for c in ranking if c in pool)] += 1
    return out


def _fewest(profile: Profile, among=None) -> list[str]:
    """The candidates tied for fewest first places among ``among``, sorted."""
    counts = brute_first_places(profile, among)
    low = min(counts.values())
    return sorted(c for c, v in counts.items() if v == low)


def _brute_orders(profile: Profile, losers) -> frozenset[tuple[str, ...]]:
    """Every order of a one-at-a-time elimination, survivor first, where
    ``losers(current)`` lists who may go next from the restricted profile
    ``current``; each possible loser is followed."""
    memo: dict[frozenset[str], frozenset] = {}

    def orders(remaining: frozenset[str]) -> frozenset:
        if len(remaining) == 1:
            return frozenset({tuple(remaining)})
        if remaining not in memo:
            current = brute_restrict(profile, remaining)
            memo[remaining] = frozenset(
                head + (loser,)
                for loser in losers(current)
                for head in orders(remaining - {loser})
            )
        return memo[remaining]

    return orders(frozenset(profile.candidates))


def brute_stv_star(profile: Profile) -> frozenset[tuple[str, ...]]:
    """Every STV order: each round drops one of the fewest-first-place candidates."""
    return _brute_orders(profile, _fewest)


def brute_stv(profile: Profile) -> frozenset[str]:
    """STV winners under every tie-breaking: the tops of every STV order."""
    return frozenset(r[0] for r in brute_stv_star(profile))


def brute_nr_star(profile: Profile) -> frozenset[tuple[str, ...]]:
    """Nested runoff: each round drops an STV winner of the reversed profile."""
    return _brute_orders(profile, lambda current: sorted(brute_stv(reverse_profile(current))))


def brute_stv_i_ranking(profile: Profile, i: int) -> tuple[str, ...]:
    """STV where voter i drops whichever tied candidate they rank lowest."""
    ballot = list(profile.voters())[i - 1]
    remaining = set(profile.candidates)
    gone: list[str] = []
    while len(remaining) > 1:
        tied = _fewest(profile, remaining)
        loser = max(tied, key=ballot.index)
        gone.append(loser)
        remaining.remove(loser)
    return (*remaining, *reversed(gone))


def brute_nr_i_star(profile: Profile, i: int) -> tuple[str, ...]:
    """Nested runoff dropping the reversed profile's ``stv_i`` winner each round."""
    (order,) = _brute_orders(
        profile, lambda current: [brute_stv_i_ranking(reverse_profile(current), i)[0]]
    )
    return order


def brute_nnr_i_star(profile: Profile, i: int) -> tuple[str, ...]:
    """Dropping the reversed profile's ``nr_i`` winner each round."""
    (order,) = _brute_orders(
        profile, lambda current: [brute_nr_i_star(reverse_profile(current), i)[0]]
    )
    return order


def brute_alt_smith(profile: Profile) -> frozenset[str]:
    """Cut to the Smith set, drop one of the fewest-first-place candidates,
    and repeat, following every tied choice."""
    memo: dict[frozenset[str], frozenset[str]] = {}

    def run(remaining: frozenset[str]) -> frozenset[str]:
        if remaining not in memo:
            current = brute_restrict(profile, remaining)
            top = brute_smith(current)
            if len(top) == 1:
                memo[remaining] = top
            elif top != remaining:
                memo[remaining] = run(top)
            else:
                memo[remaining] = frozenset().union(
                    *(run(remaining - {loser}) for loser in _fewest(current))
                )
        return memo[remaining]

    return run(frozenset(profile.candidates))


# ---------------------------------------------------------------------------
# stack characterisations of ranked pairs


def is_weak_stack(profile: Profile, ranking) -> bool:
    """Every pairwise order in ``ranking`` is backed by a chain at least as
    strong (by margin) as the reverse pair."""
    m = brute_margins(profile)
    pos = {c: k for k, c in enumerate(ranking)}

    def supported(x: str, y: str) -> bool:
        need = m[y, x]
        # chain x = c0 > c1 > ... > ck = y descending in the ranking,
        # every link's margin >= need
        frontier = {x}
        reached = {x}
        while frontier:
            nxt = set()
            for c in frontier:
                for d in ranking:
                    if pos[d] > pos[c] and d not in reached and m[c, d] >= need:
                        if d == y:
                            return True
                        nxt.add(d)
                        reached.add(d)
            frontier = nxt
        return False

    return all(
        supported(x, y)
        for i, x in enumerate(ranking)
        for y in ranking[i + 1 :]
    )


def is_strict_stack(profile: Profile, ranking, voter: int) -> bool:
    """Like :func:`is_weak_stack` but every link must beat the reverse pair
    in voter ``voter``'s pair-priority order: larger margins first, then the
    pair whose places on the voter's ballot come first, then the orientation
    the voter holds."""
    m = brute_margins(profile)
    seat = {c: k for k, c in enumerate(list(profile.voters())[voter - 1])}
    pairs = [(a, b) for a in profile.candidates for b in profile.candidates if a != b]
    pairs.sort(key=lambda ab: (-m[ab], sorted((seat[ab[0]], seat[ab[1]])), seat[ab[0]]))
    rank_of = {pair: k for k, pair in enumerate(pairs)}
    pos = {c: k for k, c in enumerate(ranking)}

    def supported(x: str, y: str) -> bool:
        need = rank_of[(y, x)]
        frontier = {x}
        reached = {x}
        while frontier:
            nxt = set()
            for c in frontier:
                for d in ranking:
                    if pos[d] > pos[c] and d not in reached and rank_of[(c, d)] < need:
                        if d == y:
                            return True
                        nxt.add(d)
                        reached.add(d)
            frontier = nxt
        return False

    return all(
        supported(x, y)
        for i, x in enumerate(ranking)
        for y in ranking[i + 1 :]
    )


def literal_ranked_pairs_orders(profile: Profile, limit: int = 20000):
    """Simulate ranked pairs under every tie-respecting edge order.

    Returns the set of final rankings, or None when the number of orders
    exceeds ``limit`` (caller should skip).  Margin groups are processed
    high-to-low; all interleavings within each group are tried.
    """
    m = brute_margins(profile)
    edges = [
        (a, b)
        for a in profile.candidates
        for b in profile.candidates
        if a != b and m[a, b] >= 0
    ]
    groups: dict[int, list] = {}
    for e in edges:
        groups.setdefault(m[e], []).append(e)
    margins = sorted(groups, reverse=True)
    total = 1
    for margin in margins:
        k = len(groups[margin])
        for j in range(2, k + 1):
            total *= j
        if total > limit:
            return None

    def locks(order):
        locked: list[tuple[str, str]] = []

        def reaches(start, goal):
            seen, stack = {start}, [start]
            while stack:
                c = stack.pop()
                for u, v in locked:
                    if u == c and v not in seen:
                        if v == goal:
                            return True
                        seen.add(v)
                        stack.append(v)
            return False

        for a, b in order:
            if not reaches(b, a):
                locked.append((a, b))
        return locked

    def ranking_of(locked):
        remaining = list(profile.candidates)
        out = []
        while remaining:
            srcs = [
                c
                for c in remaining
                if not any(v == c and u in remaining for u, v in locked)
            ]
            assert len(srcs) == 1, srcs
            out.append(srcs[0])
            remaining.remove(srcs[0])
        return tuple(out)

    results = set()
    for combo in product(*(permutations(groups[margin]) for margin in margins)):
        order = [e for grp in combo for e in grp]
        results.add(ranking_of(locks(order)))
    return results


def _brute_fields(others):
    """Every set of opposing runners, smallest first, then lexicographic."""
    return chain.from_iterable(combinations(others, k) for k in range(len(others) + 1))


def _brute_staged_play(profile: Profile, f, runners: frozenset[str]):
    """One staged play, walked afresh: (winner or None, candidates asked)."""
    asked: set[str] = set()

    def ask(leaf) -> bool:
        (c,) = leaf.members
        asked.add(c)
        return c in runners

    def single(packed) -> str:
        (w,) = f(packed)
        return w

    def summary(node) -> Profile:
        """The node's child blocks collapsed, name by name."""
        blocks = [child.members for child in node.children]
        return brute_summarize(brute_restrict(profile, node.members), blocks)

    def process(node):
        if node.is_leaf:
            (c,) = node.members
            return c if ask(node) else None
        gone: set[str] = set()
        while True:
            alive = [ch for ch in _reading_order(node) if ch.name not in gone]
            if not alive:
                return None
            if node.kind == "P":
                for ch in alive:
                    if ch.is_leaf and not ask(ch):
                        gone.add(ch.name)
                if len(gone) == len(node.children):
                    return None
                packed = summary(node)
                block = single(brute_restrict(packed, set(packed.candidates) - gone))
                chosen = next(ch for ch in node.children if ch.name == block)
                if chosen.is_leaf:
                    return next(iter(chosen.members))
                sub = process(chosen)
                if sub is not None:
                    return sub
                gone.add(chosen.name)
                continue
            if len(alive) == 1:
                walk = alive
            else:
                pair = {alive[0].name, alive[1].name}
                block = single(brute_restrict(summary(node), pair))
                walk = alive if block == alive[0].name else alive[::-1]
            restart = False
            for ch in walk:
                if ch.is_leaf:
                    if ask(ch):
                        return next(iter(ch.members))
                    gone.add(ch.name)
                else:
                    sub = process(ch)
                    if sub is not None:
                        return sub
                    gone.add(ch.name)
                    restart = True
                    break
            if not restart:
                return None

    return process(build_pqtree(profile)), frozenset(asked)


def brute_game_verdicts(profile: Profile, rule: str, form: str) -> dict:
    """Every candidate's candidacy verdicts, with witnesses, recomputed with
    no memo: each one-shot field is elected afresh with :func:`brute_restrict`
    and the rule, each utility reads :func:`brute_clone_metric`, and each
    staged play walks the PQ-tree afresh over :func:`brute_summarize`.  The
    rule always sees a profile built and validated from name tuples, whose
    core is its own, never one cut from another profile's.

    Returns ``{candidate: ((dominant, witness), (obvious, witness))}`` for
    the one-shot form and ``{candidate: (obvious, witness)}`` for the staged
    form, in the shapes and first-found witness order of
    :mod:`clonelab.games`.
    """
    f = resolve_rule(rule)
    m = profile.m

    def pay(a, winner):
        return 0 if winner is None else m - brute_clone_metric(profile, a, winner)

    def elect(field):
        if not field:
            return None
        (w,) = f(brute_restrict(profile, field))
        return w

    out = {}
    for a in profile.candidates:
        others = sorted(set(profile.candidates) - {a})
        if form == "gamma":
            dominant = (True, None)
            worst_run = best_drop = None
            for field in _brute_fields(others):
                u_run = pay(a, elect(set(field) | {a}))
                u_drop = pay(a, elect(field))
                if u_run < u_drop and dominant[0]:
                    dominant = (False, {"candidate": a, "others_running": sorted(field),
                                        "run_utility": u_run, "drop_utility": u_drop})
                if worst_run is None or u_run < worst_run[0]:
                    worst_run = (u_run, field)
                if best_drop is None or u_drop > best_drop[0]:
                    best_drop = (u_drop, field)
            obvious = (True, None)
            if worst_run[0] < best_drop[0]:
                obvious = (False, {"candidate": a,
                                   "worst_run_utility": worst_run[0],
                                   "worst_run_others": sorted(worst_run[1]),
                                   "best_drop_utility": best_drop[0],
                                   "best_drop_others": sorted(best_drop[1])})
            out[a] = (dominant, obvious)
            continue
        worst_run = best_drop = None
        for choice in product((RUN, DROP), repeat=len(others)):
            opponents = dict(zip(others, choice))
            running = frozenset(c for c, act in opponents.items() if act == RUN)
            ran, asked = _brute_staged_play(profile, f, running | {a})
            if a not in asked:
                continue
            dropped, _ = _brute_staged_play(profile, f, running)
            u_run, u_drop = pay(a, ran), pay(a, dropped)
            if worst_run is None or u_run < worst_run[0]:
                worst_run = (u_run, {"opponents": opponents, "winner": ran})
            if best_drop is None or u_drop > best_drop[0]:
                best_drop = (u_drop, {"opponents": opponents, "winner": dropped})
        if worst_run is None or worst_run[0] >= best_drop[0]:
            out[a] = (True, None)
        else:
            out[a] = (False, {"candidate": a,
                              "worst_run_utility": worst_run[0], "worst_run": worst_run[1],
                              "best_drop_utility": best_drop[0], "best_drop": best_drop[1]})
    return out
