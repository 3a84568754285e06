"""The package registers every library module lazily and serves the
public names from them: the names resolve, list, star-import, pickle and
copy as they would from eagerly imported modules."""

import ast
import copy
import importlib
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import algdigits

PACKAGE = Path(algdigits.__file__).parent


def _python(code: str, stdin: bytes = b"") -> str:
    """Run code in a fresh interpreter; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], input=stdin,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_every_module_but_cli_is_registered_lazily():
    # A module missing from the table would be imported eagerly, and the
    # benchmark's traced run, which wraps the modules it finds in
    # sys.modules, would not see it.
    files = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    lazy = _python(
        "import sys\n"
        "from importlib.util import _LazyModule\n"
        "import algdigits\n"
        "print(' '.join(sorted(n.split('.', 1)[1] for n, m in"
        " sys.modules.items() if n.startswith('algdigits.')"
        " and type(m) is _LazyModule)))\n")
    assert set(lazy.split()) == files


def test_no_module_imports_from_future():
    # Annotations are evaluated as written, with forward references
    # quoted, so no call needs to import __future__.
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if any(isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"
                        for node in ast.walk(ast.parse(path.read_text())))]
    assert importers == []


@pytest.mark.parametrize("name", algdigits.__all__)
def test_public_name_is_its_modules_object(name):
    value = getattr(algdigits, name)
    owners = [layer for layer, names in algdigits._LAYERS.items()
              if name in names]
    assert len(owners) == 1
    module = importlib.import_module(f"algdigits.{owners[0]}")
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__
    assert name in dir(algdigits)


def test_all_is_sorted_and_unique():
    assert algdigits.__all__ == sorted(set(algdigits.__all__))


# Each shared cap default: its value, the option and parameter name it
# sets, the CLI calls that parse it and the library functions whose
# parameter of that name defaults to it.
CAP_DEFAULTS = [
    ("DEFAULT_MAX_STATES", 1_000_000, "max_states",
     [["count", "--poly", "x-2", "--height", "1", "--length", "1"],
      ["zero-automaton", "--poly", "x-2", "--height", "1"],
      ["min-height", "--poly", "x-2"]],
     ["build_zero_automaton", "min_height"]),
    ("DEFAULT_CANDIDATE_CAP", 10**7, "candidate_cap",
     [["periodic", "--poly", "x-2"], ["is-ns", "--poly", "x-2"],
      ["sweep-quadratic", "--a2-max", "2"]],
     ["periodic_points", "is_number_system", "spans_ring",
      "sweep_quadratic"]),
    ("DEFAULT_ORBIT_STEPS", 10_000, "max_steps",
     [["expand", "--poly", "x-2", "--value", "1"]], ["orbit"]),
    ("DEFAULT_RATIONAL_STEPS", 10**6, "max_steps",
     [["rational", "--base", "3/2", "verify"]], ["expand_int"]),
]


def test_default_state_cap_is_one_value():
    # The state cap and the other shared cap defaults live in errors, so
    # that the CLI parser reads them without loading a layer.
    from algdigits.cli import build_parser
    for name, value, dest, argvs, functions in CAP_DEFAULTS:
        assert getattr(algdigits.errors, name) == value
        for argv in argvs:
            assert getattr(build_parser(argv[0]).parse_args(argv),
                           dest) == value, argv
        for function in functions:
            parameter = inspect.signature(
                getattr(algdigits, function)).parameters[dest]
            assert parameter.default == value, function


def test_star_import():
    namespace: dict = {}
    exec("from algdigits import *", namespace)
    assert set(algdigits.__all__) <= set(namespace)
    assert namespace["make_base"] is algdigits.base.make_base


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        algdigits.no_such_name  # noqa: B018
    assert not hasattr(algdigits, "no_such_name")


def test_record_survives_pickle_and_copy():
    poly = algdigits.parse_polynomial("x^2+2x+2")
    assert pickle.loads(pickle.dumps(poly)) == poly
    assert copy.copy(poly) == poly and copy.deepcopy(poly) == poly
    # Unpickling in a fresh interpreter loads the lazy module it names.
    out = _python("import pickle, sys\n"
                  "print(pickle.loads(sys.stdin.buffer.read()))\n",
                  stdin=pickle.dumps(poly))
    assert out.strip() == str(poly)
