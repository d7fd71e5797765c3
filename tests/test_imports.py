import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_stdout(script: str, *args: str) -> str:
    """Standard output of ``script`` in a fresh interpreter with src/ on its path."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_no_topolab_module_loads_scipy():
    # scipy.linalg alone adds about 22 MB to every process and its pool
    # workers; only the oracles that need scipy import it, when called
    script = (
        "import importlib, pkgutil, sys, topolab\n"
        "names = [m.name for m in pkgutil.iter_modules(topolab.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('topolab.' + name)\n"
        "print(' '.join(names))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    modules, loaded = fresh_stdout(script).splitlines()
    expected = "cli experiments coupling particle kinetic ranks initial kernels torus oracle report"
    assert set(expected.split()) <= set(modules.split())
    assert loaded == "[]"


def test_study_workers_import_nothing(tmp_path):
    # workers fork from the study's process, so whatever their trials import
    # lazily (numpy.random; numpy.ma through np.unique) is imported again in
    # each worker of each study unless the process holds it before the fork
    spec = json.loads((Path(__file__).parent / "data" / "golden_config.json").read_text())
    spec["convergence"] = {"n_values": [4, 8], "trials": 4, "fit": False}
    spec["system"]["horizon"] = 0.5
    spec["snapshot_times"] = [0.25, 0.5]
    script = (
        "import json, os, sys\n"
        "from topolab.experiments import ExperimentConfig, run_convergence\n"
        "config = ExperimentConfig.from_json(json.loads(sys.argv[1]))\n"
        "main = os.getpid()\n"
        "class Report:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if os.getpid() != main:\n"
        "            print(name, flush=True)\n"
        "sys.meta_path.insert(0, Report())\n"
        "run_convergence(config, sys.argv[2], threads=2)\n"
    )
    assert fresh_stdout(script, json.dumps(spec), str(tmp_path / "out")).split() == []
