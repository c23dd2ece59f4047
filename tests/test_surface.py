"""What `gq` exports is what its users reach.

Every public `gq` name must be entered by one of the shipped suite programs,
by the README library tour or by the suite's data generator; the few that no
such run can enter are listed in ALLOWED with the reason they stay public.
"""

import contextlib
import inspect
import io
import runpy
from pathlib import Path

import gq
from gq.cli import main as cli_main
from conftest import entered_code, public_names

ROOT = Path(__file__).resolve().parents[1]
SUITE = ROOT / "suite"
DATA = SUITE / "data"
GENERATOR = DATA / "generate.py"

# Public names that no suite program, tour line or generator line enters,
# each with the reason it stays public. Entries only ever leave this dict:
# a new public name comes with a caller in one of those runs.
ALLOWED = {
    "GqError": "error type for callers to catch; the shipped runs raise none",
    "ChartMismatchError": "error type for callers to catch; the shipped runs raise none",
    "CompositionError": "error type for callers to catch; the shipped runs raise none",
    "GradingError": "error type for callers to catch; the shipped runs raise none",
    "InconsistentPathError": "error type for callers to catch; the shipped runs raise none",
    "ParseError": "error type for callers to catch; the shipped runs raise none",
    "SemanticError": "error type for callers to catch; the shipped runs raise none",
    "StructureError": "error type for callers to catch; the shipped runs raise none",
    "UnsupportedInputError": "error type for callers to catch; the shipped runs raise none",
    "load_complex": "reached by the DSL `load complex` statement, which no suite program uses",
    "save_complex": "reached by the DSL `save` statement, which no suite program uses",
}


def readme_tour() -> str:
    """The Python block under the README's "Library tour" heading."""
    section = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _codes(obj):
    """The code objects whose entry counts as a use of `obj`: a function's
    own, or those of the functions a class defines (generated dataclass
    methods included)."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    codes = set()
    for attr in vars(obj).values():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        elif isinstance(attr, property):
            attr = attr.fget
        if inspect.isfunction(attr):
            codes.add(attr.__code__)
    return codes


def test_data_generator_reproduces_suite_data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(GENERATOR), run_name="__main__")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in DATA.iterdir() if p != GENERATOR)
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_every_public_name_is_reached(tmp_path, monkeypatch):
    """Runs the suite programs at seed 0, the README tour and the data
    generator; each must succeed, and together they enter every public name
    that ALLOWED does not list."""
    monkeypatch.chdir(tmp_path)
    with entered_code() as entered:
        with contextlib.redirect_stdout(io.StringIO()):
            for program in sorted(SUITE.glob("*.gq")):
                assert cli_main(["run", str(program), "--seed", "0"]) == 0, program.name
        exec(compile(readme_tour(), "README.md", "exec"), {})
        runpy.run_path(str(GENERATOR), run_name="__main__")
    unreached = {name for name in public_names() if not _codes(getattr(gq, name)) & entered}
    assert sorted(unreached - set(ALLOWED)) == [], "public names that nothing reaches"
    assert sorted(set(ALLOWED) - unreached) == [], "reached or gone: drop them from ALLOWED"
