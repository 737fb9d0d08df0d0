"""Every metric the benchmark reports: unit, direction, and what it should move.

``BENCHMARK.json`` and ``manifest.json`` are both derived from these tables
(``run.py --manifest`` prints the second); the smoke test keeps them in step.
"""

from __future__ import annotations

SCF_IDS = ("pv", "stv", "rp", "rp_n", "bp", "sc", "smith", "schwartz", "as",
           "ucg", "ucf", "rp_i", "stv_i")
SPF_IDS = ("stv_star", "rp_star", "bp_star", "nr", "rp_n_star", "rp_i_star",
           "stv_i", "nr_i", "nnr_i")
AXIOM_IDS = ("ioc", "cc", "condorcet", "smith", "mono", "mono_ca", "isda",
             "isda_ca", "part", "part_ca", "ioc_spf", "cc_spf")
CLI_COMMANDS = {
    "clones": ["clones"],
    "pqtree": ["pqtree"],
    "winners": ["winners", "--rule", "stv"],
    "rank": ["rank", "--rule", "stv*"],
    "cc-transform": ["cc-transform", "--rule", "stv"],
    "check": ["check", "--axiom", "ioc", "--rule", "pv"],
    "candidacy": ["candidacy", "--rule", "rp_i:1", "--form", "gamma"],
}

# name -> (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median CPU time of fresh interpreters that import clonelab and parse one profile per class"),
    "jobs_per_s": ("1/s", "higher", 0.25,
                   "jobs attempted over total charged job CPU time; a failed job is charged the budget"),
    "job_p50_ms": ("ms", "lower", 0.25, "median charged job CPU time (Harrell-Davis estimate)"),
    "job_tail_ms": ("ms", "lower", 0.25,
                    "charged job CPU time at the highest percentile with at least 10 jobs of one pass "
                    "beyond it (Harrell-Davis estimate)"),
    "peak_rss_mb": ("MB", "lower", 0.1, "ru_maxrss of the benchmark process when its first pass ends"),
}


def _layer_table() -> dict[str, tuple]:
    """name -> (unit, better, layer, end-to-end metric it should move, workload (bypassed by))."""
    t: dict[str, tuple] = {}

    def add(names, unit, better, layer, moves, on):
        for name in names:
            t[name] = (unit, better, layer, moves, on)

    add(["profiles.parse.ms", "profiles.majority_matrix.ms"], "ms", "lower", "profiles",
        "jobs_per_s, job_p50_ms; setup_s", "elections (ties: n <= 4)")
    add(["profiles.parse.calls", "profiles.majority_matrix.calls"], "count", "higher", "profiles",
        "jobs_per_s", "elections (ties: n <= 4)")
    add(["clones.clone_structure.ms", "clones.decompositions.ms"], "ms", "lower", "clones",
        "jobs_per_s; peak_rss_mb", "axiom-sweep, elections (ties)")
    add(["clones.clone_structure.calls", "clones.decompositions.calls", "clones.cache_hits",
         "clones.cache_lookups"], "count", "higher", "clones",
        "jobs_per_s", "axiom-sweep, elections (ties)")
    add(["clones.cache_hit_ratio"], "ratio", "higher", "clones", "jobs_per_s; peak_rss_mb",
        "axiom-sweep, elections (ties)")
    add(["clones.cache_entries"], "count", "lower", "clones", "peak_rss_mb",
        "axiom-sweep, elections (ties)")
    add(["pqtree.build.ms"], "ms", "lower", "pqtree", "job_p50_ms; peak_rss_mb",
        "elections, axiom-sweep (ties)")
    add(["pqtree.build.calls", "pqtree.cache_hits", "pqtree.cache_lookups"], "count", "higher",
        "pqtree", "job_p50_ms", "elections, axiom-sweep (ties)")
    add(["pqtree.cache_hit_ratio"], "ratio", "higher", "pqtree", "job_p50_ms; peak_rss_mb",
        "elections, axiom-sweep (ties)")
    add(["pqtree.cache_entries"], "count", "lower", "pqtree", "peak_rss_mb",
        "elections, axiom-sweep (ties)")
    for rid in SCF_IDS:
        parallel = rid in ("stv", "rp", "rp_n", "as", "sc")
        moves = "jobs_per_s, failed_frac" if parallel else "jobs_per_s"
        on = "ties (candidacy)" if parallel else "elections (candidacy)"
        add([f"scf.{rid}.ms"], "ms", "lower", "scf", moves, on)
        add([f"scf.{rid}.timeouts"], "count", "lower", "scf", "failed_frac", on)
    for rid in SPF_IDS:
        add([f"spf.{rid}.ms"], "ms", "lower", "spf", "jobs_per_s, failed_frac", "ties (elections)")
        add([f"spf.{rid}.timeouts"], "count", "lower", "spf", "failed_frac", "ties (elections)")
    add(["transform.cc.self_ms", "transform.product.self_ms"], "ms", "lower", "transform",
        "job_p50_ms", "elections ^cc jobs, axiom-sweep cc (ties)")
    add(["transform.cc.rule_calls", "transform.product.rule_calls"], "count", "lower", "transform",
        "job_p50_ms", "elections ^cc jobs, axiom-sweep cc (ties)")
    add([f"axioms.{a}.self_ms" for a in AXIOM_IDS], "ms", "lower", "axioms",
        "jobs_per_s, job_tail_ms", "axiom-sweep (elections)")
    add(["axioms.rule_calls", "axioms.distinct_profiles"], "count", "lower", "axioms",
        "jobs_per_s, job_tail_ms", "axiom-sweep (elections)")
    add(["axioms.distinct_ratio"], "ratio", "higher", "axioms", "jobs_per_s, job_tail_ms",
        "axiom-sweep (elections)")
    add(["axioms.inconclusive", "axioms.timeouts"], "count", "lower", "axioms", "failed_frac",
        "axiom-sweep (elections)")
    add(["games.spec.self_ms", "games.gamma.self_ms", "games.lambda.self_ms"], "ms", "lower",
        "games", "jobs_per_s", "candidacy (elections)")
    add(["games.rule_calls", "games.distinct_profiles"], "count", "lower", "games", "jobs_per_s",
        "candidacy (elections)")
    add(["games.distinct_ratio"], "ratio", "higher", "games", "jobs_per_s", "candidacy (elections)")
    add(["games.timeouts"], "count", "lower", "games", "failed_frac", "candidacy (elections)")
    add(["cli.import.ms", "cli.import_networkx.ms"] + [f"cli.{c}.ms" for c in CLI_COMMANDS],
        "ms", "lower", "cli", "setup_s", "all workloads")
    add(["trace.overhead_frac"], "ratio", "lower", "trace", "none: the cost of tracing itself",
        "all workloads")
    add(["trace.traced_s", "trace.untraced_s"], "s", "lower", "trace",
        "none: base of trace.overhead_frac", "all workloads")
    return t


PER_LAYER = _layer_table()
