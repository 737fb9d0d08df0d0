"""The package root: public names resolve on first use, and ``import
clonelab`` loads no submodule."""

import json
import os
import subprocess
import sys
from pathlib import Path

import clonelab

# every name ``from clonelab import *`` bound when the root imported each module
ROOT_NAMES = [
    "AxiomVerdict", "DROP", "EnumerationCapExceeded", "GameSpec", "IndecisiveRuleError",
    "MajorityMatrix", "PQNode", "PlayResult", "Profile", "ProfileParseError", "RULE_IDS",
    "RUN", "StrengthMatrix", "add_voter", "alt_smith", "axioms", "beatpath", "bp_star",
    "build_pqtree", "cc_transform", "check_cc", "check_cc_spf", "check_condorcet",
    "check_ioc", "check_ioc_spf", "check_isda_ca", "check_monotonicity_ca",
    "check_participation_ca", "check_smith", "clone_metric", "clone_sets_from_tree",
    "clone_structure", "clones", "composition_product", "condorcet_winner", "decomp",
    "decomposition_degree", "enumerate_decompositions", "games", "gamma_dominant_run",
    "gamma_obviously_dominant_run", "is_clone_set", "lambda_obviously_dominant_run",
    "lambda_play", "load_fixture", "majority_matrix", "neg", "nnr_i_star", "nr_i_star",
    "nr_star", "ordered_child", "parse_profile", "pqtree", "priority_order", "profiles",
    "pv", "remove_candidates", "replace_voter", "resolve_rule", "resolve_spf", "restrict",
    "reverse_profile", "rp_i", "rp_i_ranking", "rp_i_star", "rp_n", "rp_n_star", "rp_put",
    "rp_put_rankings", "rp_star", "scf", "schwartz", "serialize_profile", "serialize_tree",
    "sigma_i", "smith", "spf", "spf_to_scf", "split_cycle", "strength_matrix", "stv",
    "stv_i", "stv_i_ranking", "stv_i_star", "stv_star", "substitute", "summarize",
    "transform", "uc_fishburn", "uc_gillies", "utility",
]

SCRIPT = """\
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("clonelab."))
import clonelab
report = {"bare": loaded()}
from clonelab.profiles import parse_profile
report["profiles"] = loaded()
report["scf"] = clonelab.scf.__name__
names = json.loads(sys.stdin.read())
resolved = {name: getattr(clonelab, name) for name in names}
star = {}
exec("from clonelab import *", star)
modules = [sys.modules["clonelab." + m] for m in clonelab._MODULES]
def home(name):
    if name in clonelab._MODULES:
        return sys.modules["clonelab." + name]
    (owner,) = [m for m in modules if name in m.__all__]
    return getattr(owner, name)
report["differ"] = [n for n in names if not resolved[n] is star[n] is home(n)]
try:
    clonelab.no_such_name
    report["unknown"] = "resolved"
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_root_resolves_names_on_first_use():
    """Run in a fresh interpreter, since this one has imported every module."""
    path = [str(Path(clonelab.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], input=json.dumps(ROOT_NAMES),
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["bare"] == []
    assert report["profiles"] == ["clonelab.profiles"]
    assert report["scf"] == "clonelab.scf"
    assert report["differ"] == []
    assert report["unknown"] == "module 'clonelab' has no attribute 'no_such_name'"


def test_public_names_are_listed_once():
    names = clonelab.__all__
    assert len(names) == len(set(names))
    assert set(ROOT_NAMES) <= set(names)
