"""Import discipline: the package and each CLI command load only the modules
they use, and every lazily resolved public name is its defining module's
object.  Each load check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicomplex
from bicomplex import Bicomplex, TMatrix, TVector

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ["bicomplex.verifier", "bicomplex.functionals", "bicomplex.operators", "bicomplex.tmodule", "numpy"]


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def heavy_loaded_after(code: str, heavy=HEAVY) -> set:
    """The modules of `heavy` in sys.modules after `code` runs in a fresh interpreter."""
    report = f"\nimport json, sys\nprint(json.dumps([m for m in {list(heavy)!r} if m in sys.modules]))"
    return set(json.loads(run_fresh(code + report).splitlines()[-1]))


def test_importing_the_package_loads_no_numpy_and_no_layer_above_the_scalars():
    assert heavy_loaded_after("import bicomplex", HEAVY + ["dataclasses"]) == set()


def test_an_exception_type_resolves_without_any_layer():
    code = "import bicomplex\nassert issubclass(bicomplex.SingularOperator, bicomplex.BicomplexError)"
    assert heavy_loaded_after(code, HEAVY + ["bicomplex.scalar", "dataclasses"]) == set()


def test_calc_and_decompose_never_import_numpy():
    code = "from bicomplex.cli import main\nmain(['calc', '1 2 3 4', 'mul', '0.5 0 0 -0.5'])\nmain(['decompose', '1 2 3 4'])"
    # dataclasses alone adds several milliseconds of imports to a scalar command.
    assert heavy_loaded_after(code, HEAVY + ["dataclasses"]) == set()


def test_solve_and_norm_load_neither_the_verifier_nor_functionals(tmp_path):
    matrix, vector = tmp_path / "mat.json", tmp_path / "vec.json"
    matrix.write_text(json.dumps(TMatrix.scalar(2, Bicomplex.from_idempotent(2, 1)).to_json()))
    vector.write_text(json.dumps(TVector.from_scalars([Bicomplex(1.0), Bicomplex(2.0)]).to_json()))
    code = f"from bicomplex.cli import main\nmain(['solve', {str(matrix)!r}, {str(vector)!r}])\nmain(['norm', {str(matrix)!r}])"
    assert heavy_loaded_after(code) == {"bicomplex.operators", "bicomplex.tmodule", "numpy"}


def test_every_public_name_is_its_defining_module_object_and_is_kept():
    code = """
import sys
import bicomplex
for name in bicomplex.__all__:
    value = getattr(bicomplex, name)
    home = getattr(value, "__module__", None) or "bicomplex." + bicomplex._HOMES[name]
    assert getattr(sys.modules[home], name) is value, (name, home)
    assert vars(bicomplex)[name] is value, name
print(len(bicomplex.__all__))
"""
    assert run_fresh(code) == "43\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bicomplex import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == bicomplex.__all__
    assert len(bicomplex.__all__) == 43


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bicomplex.no_such_name
