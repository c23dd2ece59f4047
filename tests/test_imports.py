"""The exact core runs without numpy; the float modules load on first use.

`apath` (path holonomy) and `grids` (maps into SU(2)) are the only modules
that import numpy. These tests pin that boundary and the public names that
`gq` serves from the float modules.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gq
import gq.extensions
import gq.grids
from conftest import public_names

ROOT = Path(__file__).resolve().parents[1]

# names `gq` serves from its float modules; before the split it imported them
FLOAT_NAMES = {
    "apath": ["APath", "GroupoidElement", "action_integrate", "concatenate", "constant_path",
              "integrate", "load_apath", "reparametrize", "reparametrize_check", "save_apath"],
    "grids": ["GridMap", "load_gridmap", "save_gridmap", "wzw_cross_term", "wzw_product"],
}

# Runs in a fresh interpreter: the test process itself has numpy loaded.
# Prints one JSON line: [label, exit code, float modules loaded] per step.
_PROBE = r"""
import contextlib, io, json, sys
from pathlib import Path

FLOAT = ("numpy", "scipy")
steps = []

def loaded():
    return sorted(m for m in FLOAT if m in sys.modules)

import gq.cli
steps.append(["import gq.cli", 0, loaded()])

def run(label, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gq.cli.main(argv)
    steps.append([label, code, loaded()])

work = Path(sys.argv[1])
(work / "k.cplx").write_text("gqcomplex 1\ncomponent 0 1\ncomponent 1 1\n"
                             "differential 0\n0\nend\n")
(work / "k.gq").write_text('load complex K "k.cplx";\n')
run("checks", ["checks"])
run("check -s", ["check", "q2", "D", "-s",
                 "chart C { x1:0; xi1:1; } qfield D on C { x1 -> xi1; }"])
for name in sys.argv[2:]:
    run(name, ["run", name])
run("load complex", ["run", str(work / "k.gq")])
for name in ("suite/06_paths.gq", "suite/08_wzw.gq"):
    run(name, ["run", name])
print(json.dumps(steps))
"""

EXACT_SUITE = ["suite/01_q_structures.gq", "suite/02_poisson.gq", "suite/03_courant.gq",
               "suite/04_extensions.gq", "suite/05_pairs.gq", "suite/07_complexes.gq"]


def test_exact_programs_do_not_load_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path), *EXACT_SUITE],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    *exact, paths, wzw = steps
    assert [label for label, _, _ in exact] == [
        "import gq.cli", "checks", "check -s", *EXACT_SUITE, "load complex"]
    for label, code, loaded in exact:
        assert (code, loaded) == (0, []), label
    # the float programs still pass, and they are what loads numpy
    assert paths == ["suite/06_paths.gq", 0, ["numpy"]]
    assert wzw[:2] == ["suite/08_wzw.gq", 0]


def _eager_names():
    """(module, name) of every `from .module import name` in gq/__init__.py."""
    tree = ast.parse(Path(gq.__file__).read_text())
    return {(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_public_names_resolve_to_their_defining_module():
    names = _eager_names() | {(module, name) for module, names in FLOAT_NAMES.items()
                              for name in names}
    listed = dir(gq)
    # the imports and the float names are all that gq exports
    assert {name for _, name in names} == set(public_names())
    for module, name in names:
        home = importlib.import_module(f"gq.{module}")
        assert getattr(gq, name) is getattr(home, name), name
        assert name in listed, name


def test_float_modules_resolve_on_the_package():
    assert gq.apath is importlib.import_module("gq.apath")
    assert gq.grids is importlib.import_module("gq.grids")
    from gq import APath, wzw_product
    assert APath is gq.apath.APath and wzw_product is gq.grids.wzw_product


@pytest.mark.parametrize("module", [gq, gq.extensions], ids=["gq", "extensions"])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_extensions_serves_the_grid_names():
    # bench/tracer.py wraps `extensions.wzw_product` by looking it up here and
    # patching every module that holds the same object, so the name must
    # resolve to the very function that `check wzw` calls through `grids`.
    assert gq.extensions.wzw_product is gq.grids.wzw_product
    for name in FLOAT_NAMES["grids"]:
        assert getattr(gq.extensions, name) is getattr(gq.grids, name)

