"""Start-up cost: each verb imports only what it runs.

``import repro``, ``import repro.cli`` and ``repro --version`` load
neither numpy nor scipy; the analysis verbs load numpy but not scipy,
whose one user is :mod:`repro.calibrate.reconstruct` (``repro
paper``).  Every case runs in a fresh interpreter, since the test
process itself has long imported everything.  The lazy package roots
still resolve every public name, and ``--profile`` opens with the
start-up (``import``) row.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.calibrate
import repro.serve
from repro.instrument import Tracer, write_tracer

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Runs ``python -m repro ARGV`` in-process, then reports the exit code
#: and which of numpy/scipy the run loaded.
_RUN_VERB = """
import runpy, sys
sys.argv = ["repro"] + {argv!r}
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
print("\\nPROBE", code, *sorted({{"numpy", "scipy"}} & set(sys.modules)))
"""

_IMPORT = """
import sys
{statement}
print("\\nPROBE", 0, *sorted({{"numpy", "scipy"}} & set(sys.modules)))
"""


def _probe(code):
    """Run ``code`` in a fresh interpreter: (exit code, loaded set,
    everything printed before the probe line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    output, _, probe = done.stdout.rpartition("\nPROBE ")
    status, *loaded = probe.split()
    return int(status), set(loaded), output


def run_verb(*argv):
    return _probe(_RUN_VERB.format(argv=[str(arg) for arg in argv]))


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    tracer = Tracer()
    for step in range(4):
        for rank in range(3):
            begin = float(step)
            tracer.record(rank, "loop", "computation", begin,
                          begin + 0.5 + 0.1 * rank * step)
        tracer.record(0, "loop", "point-to-point", step + 0.8, step + 0.9,
                      kind="send", nbytes=64, partner=1)
        tracer.record(1, "loop", "point-to-point", step + 0.8, step + 0.9,
                      kind="recv", nbytes=64, partner=0)
    path = root / "sweep" / "t.jsonl"
    path.parent.mkdir()
    write_tracer(path, tracer)
    return path


class TestNothingHeavyAtStartUp:
    @pytest.mark.parametrize("statement", ["import repro",
                                           "import repro.cli",
                                           "import repro.serve.client"])
    def test_import_loads_neither_numpy_nor_scipy(self, statement):
        assert _probe(_IMPORT.format(statement=statement))[1] == set()

    def test_version_loads_neither_numpy_nor_scipy(self):
        code, loaded, output = run_verb("--version")
        assert (code, loaded) == (0, set())
        assert output.strip() == f"repro {repro.__version__}"


class TestOnlyPaperLoadsScipy:
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--stream"], ["analyze", "--jobs", "2"],
        ["temporal", "--windows", "2"],
        ["temporal", "--windows", "2", "--stream"],
        ["counters"]])
    def test_verb_does_not_load_scipy(self, trace, argv):
        code, loaded, _ = run_verb(argv[0], trace, *argv[1:])
        assert (code, loaded) == (0, {"numpy"})

    def test_sweep_does_not_load_scipy(self, trace):
        code, loaded, _ = run_verb("temporal", "--sweep", trace.parent,
                                   "--windows", "2", "--jobs", "2",
                                   "--no-cache")
        assert (code, loaded) == (0, {"numpy"})

    def test_serve_jobs_does_not_load_scipy(self):
        statement = "import repro.serve.jobs"
        assert "scipy" not in _probe(_IMPORT.format(statement=statement))[1]

    def test_paper_loads_scipy(self):
        code, loaded, _ = run_verb("paper")
        assert (code, loaded) == (0, {"numpy", "scipy"})


@pytest.mark.parametrize("package", ["repro", "repro.calibrate",
                                     "repro.serve"])
def test_lazy_names_resolve_in_a_fresh_interpreter(package):
    code = f"""
import json, {package} as package
from types import ModuleType
names = package.__all__
values = {{name: getattr(package, name) for name in names}}
star = {{}}
exec("from {package} import *", star)
print(json.dumps({{"missing": [name for name in names
                               if star.get(name) is not values[name]
                               or name not in dir(package)],
                  "modules": [name for name in names
                              if isinstance(values[name], ModuleType)]}}))
"""
    _, _, output = _probe(_IMPORT.format(statement=code))
    report = json.loads(output.strip().splitlines()[-1])
    assert report["missing"] == []
    subpackages = {"repro": {"apps", "baselines", "calibrate", "core",
                             "faults", "instrument", "simmpi", "viz"},
                   "repro.calibrate": {"paper_data"},
                   "repro.serve": set()}[package]
    assert set(report["modules"]) == subpackages


@pytest.mark.parametrize("package", [repro, repro.calibrate, repro.serve])
def test_unknown_attribute_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(package, "nonexistent")
    assert not hasattr(package, "nonexistent")


def test_reconstruct_is_the_function_after_importing_its_module():
    code = """
import importlib
module = importlib.import_module("repro.calibrate.reconstruct")
import repro
from repro.calibrate import reconstruct
assert reconstruct is module.reconstruct is repro.reconstruct
"""
    _probe(_IMPORT.format(statement=code))


class TestImportRow:
    def test_profile_table_opens_with_import(self, trace, tmp_path):
        out = tmp_path / "self.jsonl"
        code, _, output = run_verb("analyze", trace, "--profile",
                                   "--profile-out", out)
        assert code == 0
        table = output[output.index("Pipeline profile"):].splitlines()
        assert table[3].split()[:3] == ["import", "1", "1"]
        first = json.loads(out.read_text().splitlines()[1])
        assert (first["g"], first["a"], first["b"]) == ("import",
                                                        "startup", 0.0)

    def test_library_main_has_no_import_row(self, trace, capsys):
        from repro.cli import main
        assert main(["analyze", str(trace), "--profile"]) == 0
        assert "\nimport " not in capsys.readouterr().out
