"""What a cold process loads and how many threads it runs: the package root
loads no submodule, each CLI verb loads only the modules it runs, without
``numpy.ma``, and a verb process runs numpy on one BLAS thread unless its
caller chose a thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdprice

SRC = str(Path(crowdprice.__file__).resolve().parents[1])
WORKERS_CSV = "id,quality,cost\n1,0.9,0.3\n2,0.5,0.25\n3,0.8,0.5\n4,0.3,0.1\n5,0.6,0.4\n"
SCENARIO = {
    "population": {"generator": {"n": 5, "seed": 3}},
    "utility": {"kind": "typo", "M": 25},
    "bonus_policies": [{"kind": "threshold", "m": 13, "M": 25}, {"kind": "linear", "M": 25}],
    "budget": 1.5,
    "seed": 3,
}
# runs the CLI in-process, as the console script does, then reports on
# stderr the loaded modules, the environment and the OS threads
RUN_VERB = """
import json, os, sys
from crowdprice.cli import main
code = None
try:
    main(args=sys.argv[1:], prog_name="crowdprice")
except SystemExit as exc:
    code = exc.code
tasks = "/proc/self/task"
print(json.dumps({
    "code": code,
    "modules": sorted(sys.modules),
    "env": dict(os.environ),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}), file=sys.stderr)
"""
SOLVER_MODULES = {"common", "halfplane", "comparisons", "scenario", "personalized"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code: str, *args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter.  Its environment is this one's
    without the BLAS thread variables (a variable set here, by a caller or
    by an in-process CLI run, must not reach the child), plus ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )


def blas_env(report: dict) -> dict:
    return {k: v for k, v in report["env"].items() if k in BLAS_THREAD_VARS}


def run_verb(args: list[str], **env_vars: str) -> tuple[str, dict]:
    """A verb's stdout and the report ``RUN_VERB`` wrote after it."""
    proc = run_python(RUN_VERB, *args, **env_vars)
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    (root / "w.csv").write_text(WORKERS_CSV, encoding="utf-8")
    (root / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
    return {"workers": str(root / "w.csv"), "config": str(root / "scenario.json"),
            "out": str(root / "out")}


VERBS = {
    "pp": (["pp", "--workers", "{workers}", "--budget", "0.8", "--utility", "typo:M=25,m=1",
            "--mode", "exact"], {"personalized"}),
    "cp": (["cp", "--workers", "{workers}", "--budget", "0.8"], {"common", "halfplane"}),
    "cp --oracle": (["cp", "--workers", "{workers}", "--budget", "0.8", "--oracle"],
                    {"common", "halfplane"}),
    "poa": (["poa", "--workers", "{workers}", "--budget", "0.8"],
            {"common", "halfplane", "comparisons", "personalized"}),
    "pob": (["pob", "--n", "16", "--c", "1", "--eps", "0.1"],
            {"common", "halfplane", "comparisons", "personalized"}),
    "simulate": (["simulate", "--config", "{config}", "--out", "{out}"],
                 {"scenario", "common", "halfplane", "personalized"}),
    "audit": (["audit", "--trials", "1"], set()),
}


def verb_args(verb: str, inputs: dict) -> list[str]:
    return [arg.format(**inputs) for arg in VERBS[verb][0]]


@pytest.fixture(scope="module")
def cold_run(inputs):
    """Each verb's run without BLAS thread variables, made once per module."""
    runs = {}

    def run(verb: str) -> tuple[str, dict]:
        if verb not in runs:
            runs[verb] = run_verb(verb_args(verb, inputs))
        return runs[verb]

    return run


@pytest.mark.parametrize("verb", VERBS)
def test_verb_loads_only_its_modules(verb, cold_run):
    stdout, report = cold_run(verb)
    assert report["code"] in (None, 0)
    json.loads(stdout)
    modules = set(report["modules"])
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("crowdprice.")}
    assert loaded & SOLVER_MODULES == VERBS[verb][1]
    assert "numpy.ma" not in modules


def affinity() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to count threads")
@pytest.mark.parametrize("verb", VERBS)
def test_verb_runs_on_one_thread_unless_the_caller_chose(verb, inputs, cold_run):
    stdout, report = cold_run(verb)
    assert report["code"] in (None, 0)
    assert blas_env(report) == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert report["threads"] == 1
    if affinity() < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    chosen_stdout, chosen = run_verb(verb_args(verb, inputs), OPENBLAS_NUM_THREADS="2")
    assert chosen["code"] == report["code"]
    assert blas_env(chosen) == {"OPENBLAS_NUM_THREADS": "2"}
    assert chosen["threads"] == 2
    assert chosen_stdout == stdout


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    run_python(
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import crowdprice.cli\n"
        "assert dict(os.environ) == before\n"
    )


def test_library_leaves_the_environment_alone():
    modules = sorted(p.stem for p in Path(crowdprice.__file__).parent.glob("*.py")
                     if p.stem not in ("__init__", "cli"))
    run_python(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import crowdprice\n"
        f"for name in {modules!r}:\n"
        "    __import__('crowdprice.' + name)\n"
        "for name in crowdprice.__all__:\n"
        "    getattr(crowdprice, name)\n"
        "assert 'numpy' in sys.modules\n"
        "assert dict(os.environ) == before\n"
    )


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
