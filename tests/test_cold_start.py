"""What a cold process loads: the package root loads no submodule, and each
CLI verb loads only the modules it runs, without ``numpy.ma``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdprice

SRC = str(Path(crowdprice.__file__).resolve().parents[1])
WORKERS_CSV = "id,quality,cost\n1,0.9,0.3\n2,0.5,0.25\n3,0.8,0.5\n4,0.3,0.1\n5,0.6,0.4\n"
# runs the CLI in-process, then reports the loaded modules on stderr
RUN_VERB = """
import json, sys
from crowdprice.cli import main
code = None
try:
    main(args=sys.argv[1:], prog_name="crowdprice")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""
SOLVER_MODULES = {"common", "halfplane", "comparisons", "scenario", "personalized"}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )


@pytest.fixture(scope="module")
def workers_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "w.csv"
    path.write_text(WORKERS_CSV, encoding="utf-8")
    return str(path)


VERBS = {
    "pp": (["pp", "--budget", "0.8", "--utility", "typo:M=25,m=1", "--mode", "exact"],
           {"personalized"}),
    "cp": (["cp", "--budget", "0.8"], {"common", "halfplane"}),
    "cp --oracle": (["cp", "--budget", "0.8", "--oracle"], {"common", "halfplane"}),
    "poa": (["poa", "--budget", "0.8"],
            {"common", "halfplane", "comparisons", "personalized"}),
    "pob": (["pob", "--n", "16", "--c", "1", "--eps", "0.1"],
            {"common", "halfplane", "comparisons", "personalized"}),
}


@pytest.mark.parametrize("verb", VERBS)
def test_verb_loads_only_its_modules(verb, workers_file):
    args, solvers = VERBS[verb]
    if verb != "pob":
        args = [args[0], "--workers", workers_file, *args[1:]]
    proc = run_python(RUN_VERB, *args)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] in (None, 0)
    json.loads(proc.stdout)
    modules = set(report["modules"])
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("crowdprice.")}
    assert loaded & SOLVER_MODULES == solvers
    assert "numpy.ma" not in modules


def test_bare_import_loads_no_submodule():
    proc = run_python(
        "import json, sys, crowdprice; print(json.dumps(sorted(sys.modules)))"
    )
    assert [m for m in json.loads(proc.stdout) if m.startswith("crowdprice.")] == []


def test_lazy_root_resolves_every_name():
    proc = run_python(
        "import crowdprice\n"
        "from crowdprice import scenario\n"
        "assert scenario.run_scenario is crowdprice.run_scenario\n"
        "listed = dir(crowdprice)\n"
        "missing = [n for n in crowdprice.__all__ if n not in listed]\n"
        "assert not missing, missing\n"
        "for name in crowdprice.__all__:\n"
        "    getattr(crowdprice, name)\n"
    )
    assert proc.returncode == 0


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        crowdprice.nope
