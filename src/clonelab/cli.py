"""Command-line front end.

Exit codes: 0 success; 1 an axiom check failed; 2 a check was inconclusive
(an enumeration cap fired); 64 usage error (unknown command, rule, axiom, or
flag); 65 the profile file could not be read or parsed.

Results go to stdout and are byte-deterministic for a given input: winner
sets and clone sets are sorted, rankings are sorted line-wise, JSON is
emitted with sorted keys.  Diagnostics (the --trace walk) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .axioms import (
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
from .clones import EnumerationCapExceeded, clone_structure
from .games import (
    GameSpec,
    IndecisiveRuleError,
    gamma_dominant_run,
    gamma_obviously_dominant_run,
    lambda_obviously_dominant_run,
)
from .profiles import Profile, ProfileParseError, parse_profile
from .pqtree import build_pqtree, decomposition_degree, serialize_tree, tree_to_dict
from .spf import SPF_IDS, bp_star, resolve_spf
from .transform import RULE_IDS, cc_transform, resolve_rule

EX_OK = 0
EX_AXIOM_FAILED = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_PARSE = 65

_AXIOMS = {  # axiom -> (rule kind, check); only cc and cc_spf take a cap
    "ioc": ("scf", check_ioc),
    "cc": ("scf", check_cc),
    "condorcet": ("scf", check_condorcet),
    "smith": ("scf", check_smith),
    "mono": ("scf", partial(check_monotonicity_ca, clone_aware=False)),
    "mono_ca": ("scf", check_monotonicity_ca),
    "isda": ("scf", partial(check_isda_ca, clone_aware=False)),
    "isda_ca": ("scf", check_isda_ca),
    "part": ("scf", partial(check_participation_ca, clone_aware=False)),
    "part_ca": ("scf", check_participation_ca),
    "ioc_spf": ("spf", check_ioc_spf),
    "cc_spf": ("spf", check_cc_spf),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 64 instead of 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _cap(text: str) -> int:
    """An enumeration cap: a positive integer."""
    cap = int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, got {cap}")
    return cap


def _build_parser() -> _Parser:
    parser = _Parser(prog="clonelab", description="clone-aware voting toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("profile", help="path to a profile file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    add("clones", "list every clone set of the profile")

    add("pqtree", "print the profile's PQ-tree")

    p = add("winners", "run a winner rule")
    p.add_argument("--rule", required=True, help=f"rule id, e.g. {', '.join(RULE_IDS)}; add ^cc for the transform")

    p = add("rank", "run a ranking rule")
    p.add_argument("--rule", required=True, help=f"ranking rule id, e.g. {', '.join(SPF_IDS)}")
    p.add_argument("--cap", type=_cap, default=None, help="enumeration cap (bp* only)")

    p = add("cc-transform", "run the clone-collapsing transform of a rule")
    p.add_argument("--rule", required=True, help="base rule id")
    p.add_argument("--trace", action="store_true", help="log each tree node visit to stderr")

    p = add("check", "verify an axiom on this profile by exhaustive search")
    p.add_argument("--axiom", required=True, choices=sorted(_AXIOMS), metavar="axiom",
                   help=", ".join(sorted(_AXIOMS)))
    p.add_argument("--rule", required=True, help="rule id (ranking rule id for *_spf axioms)")
    p.add_argument("--cap", type=_cap, default=None, help="enumeration cap (cc, cc_spf only)")

    p = add("candidacy", "analyse Run/Drop incentives of every candidate")
    p.add_argument("--rule", required=True, help="decisive rule id (e.g. rp_i:1, stv_i:1)")
    p.add_argument("--form", required=True, choices=("gamma", "lambda"),
                   help="gamma: one-shot; lambda: staged on the PQ-tree")
    p.add_argument("--candidate", default=None, help="analyse only this candidate")
    return parser


def _load(path: str) -> Profile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_profile(fh.read())
    except OSError as exc:
        raise ProfileParseError(f"cannot read {path}: {exc}") from exc


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_clones(args) -> int:
    profile = _load(args.profile)
    sets = sorted(clone_structure(profile), key=lambda s: (len(s), tuple(sorted(s))))
    lines = [",".join(sorted(s)) for s in sets]
    _emit({"clone_sets": [sorted(s) for s in sets]}, args.json, lines)
    return EX_OK


def _cmd_pqtree(args) -> int:
    profile = _load(args.profile)
    tree = build_pqtree(profile)
    payload = {
        "tree": tree_to_dict(tree),
        "expression": serialize_tree(tree),
        "degree": decomposition_degree(tree),
    }
    _emit(payload, args.json, [serialize_tree(tree)])
    return EX_OK


def _cmd_winners(args) -> int:
    profile = _load(args.profile)
    winners = resolve_rule(args.rule)(profile)
    _emit({"winners": sorted(winners)}, args.json, [",".join(sorted(winners))])
    return EX_OK


def _cmd_rank(args) -> int:
    profile = _load(args.profile)
    fn = resolve_spf(args.rule)
    if args.cap is not None:
        if args.rule.strip() != "bp*":
            raise ValueError(f"--cap applies only to bp*, not {args.rule!r}")
        fn = partial(bp_star, cap=args.cap)
    rankings = sorted(">".join(r) for r in fn(profile))
    _emit({"rankings": rankings}, args.json, rankings)
    return EX_OK


def _cmd_cc_transform(args) -> int:
    profile = _load(args.profile)
    trace: list | None = [] if args.trace else None
    winners = cc_transform(args.rule, profile, trace=trace)
    payload: dict = {"winners": sorted(winners)}
    if trace is not None:
        payload["trace"] = trace
        for record in trace:
            print(
                f"[trace] {record['kind']} node {{{','.join(record['node'])}}} "
                f"summary [{' | '.join(record['blocks'])}] "
                f"-> {','.join(record['selected'])} ({record['rule_calls']} rule call)",
                file=sys.stderr,
            )
    _emit(payload, args.json, [",".join(sorted(winners))])
    return EX_OK


def _cmd_check(args) -> int:
    if args.cap is not None and args.axiom not in ("cc", "cc_spf"):
        raise ValueError(f"--cap applies only to cc and cc_spf, not {args.axiom!r}")
    profile = _load(args.profile)
    kind, check = _AXIOMS[args.axiom]
    rule = resolve_spf(args.rule) if kind == "spf" else resolve_rule(args.rule)
    verdict = check(rule, profile) if args.cap is None else check(rule, profile, cap=args.cap)
    payload = {
        "axiom": verdict.axiom,
        "holds": verdict.holds,
        "witness": verdict.witness,
        "detail": verdict.detail,
    }
    if verdict.holds is None:
        _emit(payload, args.json, ["inconclusive", verdict.detail])
        return EX_INCONCLUSIVE
    if verdict.holds:
        _emit(payload, args.json, ["holds"])
        return EX_OK
    lines = ["fails"]
    for key in sorted(verdict.witness or {}):
        lines.append(f"  {key}: {verdict.witness[key]}")
    _emit(payload, args.json, lines)
    return EX_AXIOM_FAILED


def _cmd_candidacy(args) -> int:
    profile = _load(args.profile)
    names = sorted(profile.candidates)
    if args.candidate is not None:
        if args.candidate not in profile.candidates:
            raise ValueError(f"unknown candidate {args.candidate!r}")
        names = [args.candidate]
    game = GameSpec(profile=profile, rule=args.rule, form=args.form)
    lines: list[str] = []
    records: list[dict] = []
    for name in names:
        if args.form == "gamma":
            dominant, witness = gamma_dominant_run(game, name)
            obvious, ob_witness = gamma_obviously_dominant_run(game, name)
            lines.append(
                f"{name}: run_dominant={'yes' if dominant else 'no'} "
                f"obviously_dominant={'yes' if obvious else 'no'}"
            )
            records.append(
                {
                    "candidate": name,
                    "run_dominant": dominant,
                    "witness": witness,
                    "obviously_dominant": obvious,
                    "obviousness_witness": ob_witness,
                }
            )
        else:
            obvious, witness = lambda_obviously_dominant_run(game, name)
            lines.append(f"{name}: obviously_dominant={'yes' if obvious else 'no'}")
            records.append(
                {"candidate": name, "obviously_dominant": obvious, "witness": witness}
            )
    _emit({"form": args.form, "rule": args.rule, "candidates": records}, args.json, lines)
    return EX_OK


_COMMANDS = {
    "clones": _cmd_clones,
    "pqtree": _cmd_pqtree,
    "winners": _cmd_winners,
    "rank": _cmd_rank,
    "cc-transform": _cmd_cc_transform,
    "check": _cmd_check,
    "candidacy": _cmd_candidacy,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ProfileParseError as exc:
        print(f"clonelab: profile error: {exc}", file=sys.stderr)
        return EX_PARSE
    except EnumerationCapExceeded as exc:
        print(f"clonelab: inconclusive: {exc}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except (IndecisiveRuleError, ValueError, IndexError) as exc:
        print(f"clonelab: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
