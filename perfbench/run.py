"""clonelab benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload elections --seed 1 --seconds 15 --trace 0

Run from a checkout: clonelab is imported from ``src/`` beside this
directory, and the run fails when it is missing.  The process runs one job
at a time, on one thread, in passes (see ``workloads.py``) until
``--seconds`` of wall time are used, and checks every answer.  A job's time
is the CPU time of that thread, which leaves out the time a shared machine
gives to other processes.  Every job runs under a wall-clock interval timer;
a job over its workload's budget fails and is charged the whole budget.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, replays the same jobs with spans around the benchmark's calls
into each clonelab module, then times module-level probes and the CLI as
fresh subprocesses, and prints the per-layer metrics.  Human-readable lines
and a ``report:`` line with the details come first; the last line of stdout
is the result object.  The exit code is 1 when any answer was wrong.

``--workload all`` runs every workload in turn, each in a process of its
own, and ends with one line holding every result.  ``--jobs N`` runs
exactly the first N jobs instead of a timed loop;
``--record`` (with ``--jobs`` at the default seed) rewrites the
expected-answers record; ``--manifest`` prints ``manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

import metrics
from spans import BudgetExceeded, NullTracer, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
DEFAULT_SEED = 1
SETUP_RUNS = 7
IMPORT_RUNS = 3
DECOMPOSITION_PROBE_CAP = 10**4
FAILED = ("timeout", "inconclusive", "error", "wrong")  # statuses other than "ok"
INCORRECT = ("error", "wrong")

SETUP_CODE = """\
import sys
import clonelab
from clonelab.profiles import parse_profile
for text in sys.stdin.read().split("\\0"):
    parse_profile(text)
"""


class Budget:
    """Per-job limit on wall time, enforced by SIGALRM on the benchmark's only thread."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame) -> None:
        if self.armed:
            raise BudgetExceeded()

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs jobs one at a time and keeps one result record per job."""

    def __init__(self, jobs_mod, budget: Budget, expected: dict | None) -> None:
        self.jobs = jobs_mod
        self.budget = budget
        self.expected = expected
        self.cache_stats = {"clones": [0, 0], "pqtree": [0, 0]}  # hits, misses while traced
        self.cache_entries = {"clones": 0, "pqtree": 0}  # sizes when the traced jobs end
        self.first_pass_rss_mb = None  # ru_maxrss once the first pass is done
        self.messages: list[str] = []

    def run_one(self, job, tr) -> dict:
        caches = self._cache_info() if isinstance(tr, Tracer) else None
        status, answer = "ok", None
        self.budget.arm()
        start = thread_time()
        try:
            profile, answer, game = self.jobs.execute(job, tr)
            seconds = thread_time() - start
        except BudgetExceeded:
            status = "timeout"
        except Exception as exc:  # a crash inside clonelab is a failed job, reported below
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        finally:
            self.budget.disarm()
            tr.end_job()
        if caches is not None:
            for name, (hits, misses) in self._cache_info().items():
                self.cache_stats[name][0] += hits - caches[name][0]
                self.cache_stats[name][1] += misses - caches[name][1]
        record = {"key": job.key, "cls": job.cls, "rule": job.rule, "detail": job.detail}
        if status == "ok":
            if job.kind == "axiom" and answer.holds is None:
                status = "inconclusive"
            else:
                status, detail, record["digest"] = self._assess(job, profile, answer, game, tr)
        if status != "ok":
            seconds = self.budget.seconds
            if status in INCORRECT:
                self.messages.append(f"{job.key} {job.cls} {job.rule} {job.detail}: {status}: {detail}")
        record.update(status=status, seconds=seconds)
        return record

    def _assess(self, job, profile, answer, game, tr):
        digest = self.jobs.digest(self.jobs.canonical(job, answer))
        try:
            self.jobs.check(job, profile, answer, game, tr)
        except self.jobs.CheckFailed as exc:
            return "wrong", str(exc), digest
        except Exception as exc:  # a witness that cannot even be replayed
            return "wrong", f"check raised {type(exc).__name__}: {exc}", digest
        want = (self.expected or {}).get(job.key)
        if want is not None and want != digest:
            return "wrong", f"answer digest {digest} differs from the recorded {want}", digest
        return "ok", "", digest

    @staticmethod
    def _caches() -> dict:
        from clonelab.clones import clone_structure
        from clonelab.pqtree import build_pqtree

        return {"clones": clone_structure, "pqtree": build_pqtree}

    def _cache_info(self) -> dict:
        return {name: fn.cache_info()[:2] for name, fn in self._caches().items()}

    def replay_traced(self, ran, tr: Tracer) -> list[dict]:
        """Run ``ran`` again with spans, starting from empty caches."""
        for fn in self._caches().values():
            fn.cache_clear()
        traced = [self.run_one(job, tr) for job in ran]
        self.cache_entries = {name: fn.cache_info().currsize for name, fn in self._caches().items()}
        return traced

    def timed(self, workload, seed: int, seconds: float, max_jobs: int | None, tr):
        """Run whole passes until ``seconds`` of wall time are used, or the
        first ``max_jobs`` jobs; returns the results and the jobs run."""
        results, ran, walls = [], [], []
        start, k = perf_counter(), 0
        while True:
            if max_jobs is None and k and perf_counter() - start + statistics.mean(walls) / 2 >= seconds:
                break
            pass_start = perf_counter()
            for job in workload.pass_jobs(seed, k):
                if max_jobs is not None and len(results) >= max_jobs:
                    return results, ran
                results.append(self.run_one(job, tr))
                ran.append(job)
            walls.append(perf_counter() - pass_start)
            if self.first_pass_rss_mb is None:
                self.first_pass_rss_mb = peak_rss_mb()
            k += 1
        return results, ran


# ---------------------------------------------------------------------------
# measurements outside the loop


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def first_of_each_class(jobs_run) -> list[str]:
    """One profile text per profile class, the first each class got."""
    first: dict[str, str] = {}
    for job in jobs_run:
        first.setdefault(job.cls, job.text)
    return list(first.values())


def measure_setup(texts: list[str]) -> list[float]:
    """CPU time of fresh interpreters that import clonelab and parse ``texts``."""
    data = "\0".join(texts)
    times = []
    for _ in range(SETUP_RUNS):
        start = children_cpu_s()
        subprocess.run([sys.executable, "-c", SETUP_CODE], input=data, text=True,
                       env=child_env(), cwd=ROOT, capture_output=True, check=True)
        times.append(children_cpu_s() - start)
    return times


def import_times() -> tuple[float, float]:
    """Median ms of clonelab's own import and of networkx's, by -X importtime."""
    own, nx = [], []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import clonelab"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        nx.append(cumulative.get("networkx", 0) / 1000)
        own.append(cumulative["clonelab"] / 1000 - nx[-1])
    return statistics.median(own), statistics.median(nx)


def cli_times() -> dict[str, float]:
    """Median ms of each CLI command as a fresh subprocess over P1..P9."""
    fixtures = sorted((SRC / "clonelab" / "fixtures").glob("P*.profile"))
    out = {}
    for command, args in metrics.CLI_COMMANDS.items():
        times = []
        for path in fixtures:
            start = perf_counter()
            done = subprocess.run([sys.executable, "-m", "clonelab.cli", *args, str(path)],
                                  env=child_env(), cwd=ROOT, capture_output=True, text=True)
            times.append((perf_counter() - start) * 1000)
            if done.returncode not in (0, 1, 2):  # holds, fails, inconclusive
                raise RuntimeError(f"clonelab {command} on {path.name} exited {done.returncode}: "
                                   f"{done.stderr.strip()}")
        out[command] = statistics.median(times)
    return out


def probe(tr: Tracer, texts: list[str]) -> None:
    """Time each structural layer on the given profiles, caches cold."""
    from clonelab.clones import EnumerationCapExceeded, clone_structure, enumerate_decompositions
    from clonelab.pqtree import build_pqtree
    from clonelab.profiles import majority_matrix, parse_profile

    for text in texts:
        profile = parse_profile(text)
        tr.call("profiles.majority_matrix", majority_matrix, profile)
        clone_structure.cache_clear()
        build_pqtree.cache_clear()
        tr.call("clones.clone_structure", clone_structure, profile)
        tr.call("pqtree.build", build_pqtree, profile)
        try:
            tr.call("clones.decompositions", enumerate_decompositions, profile, DECOMPOSITION_PROBE_CAP)
        except EnumerationCapExceeded:
            pass
    clone_structure.cache_clear()
    build_pqtree.cache_clear()


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of the order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights taken at each statistic's midpoint.  A pass mixes job types whose
    times leave gaps, and the plain order statistic jumps across a gap when
    one job moves; this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    weights = [math.exp(w - top) for w in logw]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(results: list[dict], setup: list[float], rss_mb: float, pct: float) -> tuple[dict, dict]:
    charged = [r["seconds"] for r in results]
    n = len(charged)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": n / sum(charged),
        "job_p50_ms": quantile(charged, 0.5) * 1000,
        "job_tail_ms": quantile(charged, pct / 100) * 1000,
        "peak_rss_mb": rss_mb,
    }
    detail = {"job_tail_percentile": pct, "job_samples": n,
              "jobs_beyond_tail": n - math.ceil(pct / 100 * n), "setup_samples_s": setup,
              "charged_s": sum(charged)}
    return values, detail


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, loop: Loop, untraced: list[dict], traced: list[dict],
              imports: tuple[float, float], cli: dict[str, float]) -> dict:
    """Per-layer metrics of a traced replay of the ``untraced`` jobs."""
    v: dict[str, float] = {}
    ms = {name: t * 1000 for name, t in tr.total.items()}
    self_ms = {name: t * 1000 for name, t in tr.self_time.items()}
    for span in ("profiles.parse", "profiles.majority_matrix", "clones.clone_structure",
                 "clones.decompositions", "pqtree.build"):
        v[f"{span}.ms"] = ms.get(span, 0.0)
        v[f"{span}.calls"] = tr.calls.get(span, 0)
    for layer in ("clones", "pqtree"):
        hits, misses = loop.cache_stats[layer]
        v[f"{layer}.cache_hits"] = hits
        v[f"{layer}.cache_lookups"] = hits + misses
        v[f"{layer}.cache_hit_ratio"] = ratio(hits, hits + misses)
        v[f"{layer}.cache_entries"] = loop.cache_entries[layer]
    for family, ids in (("scf", metrics.SCF_IDS), ("spf", metrics.SPF_IDS)):
        for rid in ids:
            v[f"{family}.{rid}.ms"] = ms.get(f"{family}.{rid}", 0.0)
            v[f"{family}.{rid}.timeouts"] = tr.timeouts.get(f"{family}.{rid}", 0)
    for form in ("cc", "product"):
        v[f"transform.{form}.self_ms"] = self_ms.get(f"transform.{form}", 0.0)
        v[f"transform.{form}.rule_calls"] = tr.rule_calls.get(f"transform.{form}", 0)
    for axiom in metrics.AXIOM_IDS:
        v[f"axioms.{axiom}.self_ms"] = self_ms.get(f"axioms.{axiom}", 0.0)
    for layer in ("axioms", "games"):
        v[f"{layer}.rule_calls"] = tr.rule_calls.get(layer, 0)
        v[f"{layer}.distinct_profiles"] = tr.distinct.get(layer, 0)
        v[f"{layer}.distinct_ratio"] = ratio(tr.distinct.get(layer, 0), tr.rule_calls.get(layer, 0))
        v[f"{layer}.timeouts"] = sum(c for name, c in tr.timeouts.items() if name.startswith(layer + "."))
    v["axioms.inconclusive"] = sum(r["status"] == "inconclusive" for r in traced)
    for form in ("spec", "gamma", "lambda"):
        v[f"games.{form}.self_ms"] = self_ms.get(f"games.{form}", 0.0)
    v["cli.import.ms"], v["cli.import_networkx.ms"] = imports
    for command, t in cli.items():
        v[f"cli.{command}.ms"] = t
    v["trace.untraced_s"] = sum(r["seconds"] for r in untraced)
    v["trace.traced_s"] = sum(r["seconds"] for r in traced)
    v["trace.overhead_frac"] = ratio(v["trace.traced_s"] - v["trace.untraced_s"], v["trace.untraced_s"])
    return v


# ---------------------------------------------------------------------------
# entry point


def manifest() -> dict:
    """Everything BENCHMARK.json cannot hold: metric meanings and layer
    mapping, workload parameters, budgets and where it was measured."""
    return {
        "measured_on": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "client": "closed loop, one process, one thread, one job at a time",
        "default_seed": DEFAULT_SEED,
        "end_to_end": {name: {"unit": u, "better": b, "bound": bound, "meaning": m}
                       for name, (u, b, bound, m) in metrics.END_TO_END.items()},
        "also_reported": {"failed_frac": "failed jobs over attempted jobs, in the report line; "
                                         "0 on a passing run, so it has no bound"},
        "per_layer": {name: {"unit": u, "better": b, "layer": layer, "should_move": moves,
                             "on_workload": on}
                      for name, (u, b, layer, moves, on) in metrics.PER_LAYER.items()},
        "workloads": {w.name: {"why": w.why, "budget_s": w.budget_s, "tail_pct": w.tail_pct,
                               "params": w.params,
                               "over_budget_at_default_seed": _load_expected(w.name).get("over_budget")}
                      for w in WORKLOADS.values()},
    }


def _load_expected(name: str) -> dict:
    path = EXPECTED / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None, help="run exactly this many jobs, untimed")
    ap.add_argument("--record", action="store_true", help="rewrite the expected-answers record")
    ap.add_argument("--manifest", action="store_true", help="print manifest.json and exit")
    args = ap.parse_args(argv)
    if not args.manifest and args.workload is None:
        ap.error("--workload is required")
    if args.record and (args.jobs is None or args.seed != DEFAULT_SEED or args.trace
                        or args.workload == "all"):
        ap.error(f"--record needs one workload, --jobs, --seed {DEFAULT_SEED} and --trace 0")
    return args


def run_all(argv: list[str]) -> int:
    """Run every workload as a child process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        args = [a if a != "all" else name for a in argv]
        done = subprocess.run([sys.executable, __file__, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        code = max(code, done.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if not (SRC / "clonelab" / "__init__.py").is_file():
        print(f"error: no clonelab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(argv)
    sys.path.insert(0, str(SRC))
    import clonelab
    import jobs

    if Path(clonelab.__file__).resolve().parent != SRC / "clonelab":
        print(f"error: imported clonelab from {clonelab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    record = {} if args.record else _load_expected(workload.name)
    expected = record.get("digests") if args.seed == record.get("seed") else None
    loop = Loop(jobs, Budget(workload.budget_s), expected)
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "budget_s": workload.budget_s, "python": platform.python_version(),
              "nproc": os.cpu_count(), "expected_answers": len(expected or {})}

    if args.trace == 0:
        setup = measure_setup(first_of_each_class(workload.pass_jobs(args.seed, 0)))
        results, _ = loop.timed(workload, args.seed, args.seconds, args.jobs, NullTracer())
        values, detail = end_to_end(results, setup, loop.first_pass_rss_mb or peak_rss_mb(),
                                    workload.tail_pct)
        report.update(detail)
        table = metrics.END_TO_END
    else:
        results, ran = loop.timed(workload, args.seed, args.seconds / 2, args.jobs, NullTracer())
        tr = Tracer()
        traced = loop.replay_traced(ran, tr)
        probe(tr, first_of_each_class(ran))
        values = per_layer(tr, loop, results, traced, import_times(), cli_times())
        results += traced
        table = metrics.PER_LAYER

    attempted = len(results)
    failed = sum(r["status"] in FAILED for r in results)
    correct = not any(r["status"] in INCORRECT for r in results)
    statuses = {}
    for r in results:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    report.update(statuses=statuses, failed_frac=failed / attempted,
                  over_budget=[r["key"] for r in results if r["status"] == "timeout"],
                  max_job_s=max(r["seconds"] for r in results), problems=loop.messages[:20])

    if args.record:
        finished = [r["seconds"] for r in results if r["status"] != "timeout"]
        slow = max(finished, default=0) * 2 > workload.budget_s
        if not correct or slow:
            print("error: not recording: " + ("wrong answers" if not correct else
                  f"a job took {report['max_job_s']:.2f} s, within 2x of the budget"), file=sys.stderr)
            return 1
        EXPECTED.mkdir(exist_ok=True)
        (EXPECTED / f"{workload.name}.json").write_text(json.dumps({
            "seed": args.seed, "jobs": attempted, "budget_s": workload.budget_s,
            "max_job_s": round(report["max_job_s"], 3), "over_budget": report["over_budget"],
            "digests": {r["key"]: r["digest"] for r in results if "digest" in r},
        }, indent=0, sort_keys=True) + "\n")

    for line in loop.messages[:20]:
        print(f"wrong: {line}")
    for name, value in values.items():
        print(f"{workload.name:12s} {name:36s} {value:14.4f} {table[name][0]}")
    print(f"{workload.name:12s} {'failed_frac':36s} {failed / attempted:14.4f} ratio "
          f"({failed} of {attempted})")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
