"""Module layering: the lower layers never import the upper ones, either at
module level or inside a function, and each CLI command loads only its own
layers."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvlab"
LOWER = ("ode", "rk45", "completeness", "warp", "geometry")
UPPER = {"polar", "oracle", "cli"}
# child interpreters import this checkout's curvlab
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def imported_modules(path, top_level=False):
    """curvlab module names imported anywhere in the file, or with top_level
    only by its module-level statements."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in tree.body if top_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "curvlab" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("curvlab"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x / from curvlab import x
                found.update(alias.name for alias in node.names)
    return found


def test_parser_sees_every_import_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .polar import BaseGrid\n"
                   "from . import oracle\n"
                   "import curvlab.cli\n"
                   "def f():\n"
                   "    from curvlab import expr\n"
                   "    from curvlab.serialize import csv_text\n"
                   "import numpy\n")
    assert imported_modules(src) == {"polar", "oracle", "cli", "expr", "serialize"}
    assert imported_modules(src, top_level=True) == {"polar", "oracle", "cli"}


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_do_not_import_upward(module):
    upward = imported_modules(PACKAGE / f"{module}.py") & UPPER
    assert not upward, f"{module} imports {sorted(upward)}"


def test_integrator_stands_alone():
    # rk45 sits below ode and needs nothing of the package but its errors
    assert imported_modules(PACKAGE / "rk45.py") <= {"errors"}


def test_oracle_stays_independent_of_the_closed_forms():
    # the FD oracle is the ground truth the closed forms (warp, polar, ode,
    # completeness) are checked against, so it may not reach them; a torus
    # BaseGrid reaches it as a base whose scalar_curvature is 0
    assert imported_modules(PACKAGE / "oracle.py") <= {"errors"}


def test_cli_has_one_certificate_entry_point():
    # every kind goes through comparison_certificate; oscillation_certificate
    # and barrier_certificate_33 delegate to it for library callers, so a
    # traced run that reached them would count one certificate twice
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"oscillation_certificate", "barrier_certificate_33"}


def unused_imports(path):
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_import_finder(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "import numpy as np\n"
                   "from .serialize import csv_text, read_csv\n"
                   "def f():\n"
                   "    from .completeness import ray_length\n"
                   "    return np.pi, os.path, csv_text\n")
    assert unused_imports(src) == {"read_csv", "ray_length"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    # every module reads what it imports
    unused = unused_imports(PACKAGE / f"{module}.py")
    assert not unused, f"{module} never uses {sorted(unused)}"


def function_local_package_imports(path):
    """(function name, line) of each import of a curvlab module made inside a
    function body rather than at module level."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                package = any(a.name.split(".")[0] == "curvlab" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                package = node.level > 0 or \
                    (node.module or "").split(".")[0] == "curvlab"
            else:
                continue
            if package:
                found.append((func.name, node.lineno))
    return sorted(set(found))


def test_function_local_import_finder(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .warp import Field\n"
                   "def f():\n"
                   "    import numpy as np\n"
                   "    from .warp import parse_profile\n"
                   "    return np, Field, parse_profile\n"
                   "class C:\n"
                   "    def g(self):\n"
                   "        import curvlab.expr\n"
                   "        from curvlab import ode\n")
    assert function_local_package_imports(src) == [("f", 4), ("g", 8), ("g", 9)]


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem != "cli"))
def test_no_function_local_package_imports(module):
    # package modules import each other at module level, where an import
    # cycle shows at once (the layering checks above see imports at any depth)
    found = function_local_package_imports(PACKAGE / f"{module}.py")
    assert not found, f"{module} imports inside {found}"


def test_cli_imports_only_the_standard_library_at_module_level():
    # main imports errors, and with it numpy, once argparse has chosen a
    # command, and each subcommand imports its own layers when it runs, so
    # that --help, a usage error or a table loads no other command's modules
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {alias.name for node in tree.body if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module if node.level == 0 else "." for node in tree.body
              if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in names} <= sys.stdlib_module_names


def test_certify_kinds_are_the_certificate_kinds():
    # cli writes the --kind choices out, so that parsing loads no numpy
    from curvlab.cli import build_parser
    from curvlab.ode import CERTIFICATE_KINDS
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    kind = next(action for action in subcommands["certify"]._actions
                if action.dest == "kind")
    assert kind.choices == CERTIFICATE_KINDS


def errstate_entries(path):
    """Names of the functions that enter np.errstate in the file: a
    decorator counts for the function whose body applies it, and a call at
    module level for None."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.decorator_list:
                visit(child, scope)
            for child in node.body:
                visit(child, node.name)
            return
        if isinstance(node, ast.Attribute) and node.attr == "errstate":
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_errstate_entry_finder(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import numpy as np\n"
                   "def outer():\n"
                   "    @np.errstate(over='ignore')\n"
                   "    def inner():\n"
                   "        return 1\n"
                   "class C:\n"
                   "    def g(self):\n"
                   "        with np.errstate(all='ignore'):\n"
                   "            pass\n"
                   "def h():\n"
                   "    return np.seterr\n")
    assert errstate_entries(src) == {"outer", "g"}


def test_one_owner_per_errstate():
    # Python-float arithmetic that raises falls back to IEEE through
    # errors.ieee alone; cli.main runs every command under ignored flags,
    # and assemble_metric's component function lets a factor overflow into
    # the components the oracle names as not finite
    found = {(p.stem, name) for p in PACKAGE.glob("*.py")
             for name in errstate_entries(p)}
    assert found == {("errors", "ieee"), ("cli", "main"),
                     ("oracle", "assemble_metric")}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_scipy(module):
    # numpy is the one runtime dependency; scipy is a test reference only
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [m for m in names if m.split(".")[0] == "scipy"]


def names_read(node):
    """Every name the tree under node reads: loaded, taken as an attribute,
    imported, or given as a string (as getattr takes it, and as perfbench
    patches functions by name)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def unreferenced_private_names(paths):
    """Module-level private names (one leading underscore) of the given
    modules that no module among them reads, as (module stem, name)."""
    defined, read = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((path.stem, name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
        read |= names_read(tree)
    return {(stem, name) for stem, name in defined if name not in read}


def test_unreferenced_private_name_finder(tmp_path):
    (tmp_path / "a.py").write_text("_LIMIT = 3\n"
                                   "_TABLE: dict = {}\n"
                                   "__all__ = []\n"
                                   "def _left_behind():\n"
                                   "    def _local():\n"
                                   "        pass\n"
                                   "def _used_here():\n"
                                   "    return _LIMIT\n"
                                   "class _Helper:\n"
                                   "    pass\n"
                                   "def public():\n"
                                   "    return _used_here()\n")
    (tmp_path / "b.py").write_text("from .a import _Helper\n"
                                   "from . import a\n"
                                   "x = a._TABLE\n")
    assert unreferenced_private_names(sorted(tmp_path.glob("*.py"))) == {
        ("a", "_left_behind")}


def test_no_unreferenced_private_names():
    # a private helper that nothing calls is left over from a consolidation
    left = unreferenced_private_names(sorted(PACKAGE.glob("*.py")))
    assert not left, f"never read: {sorted(left)}"


def methods_defined(path, names):
    """(class, method) of each method named in names that a class of the
    file defines, at any depth."""
    return {(cls.name, sub.name) for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef) for sub in cls.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub.name in names}


def test_method_finder(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("class A:\n"
                   "    def d1(self):\n"
                   "        def d2():\n"
                   "            pass\n"
                   "    class B:\n"
                   "        def d2(self):\n"
                   "            pass\n"
                   "def d1():\n"
                   "    pass\n")
    assert methods_defined(src, {"d1", "d2"}) == {("A", "d1"), ("B", "d2")}


def test_only_field_defines_t_derivatives():
    # every field's t-derivatives are Node.diff of its tree, taken in one
    # place, so no field differentiates by hand
    found = {(p.stem,) + m for p in PACKAGE.glob("*.py")
             for m in methods_defined(p, {"d1", "d2"})}
    assert found == {("warp", "Field", "d1"), ("warp", "Field", "d2")}


def test_warp_reads_no_grid_attribute():
    # sampling on a BaseGrid belongs to polar.PolarWarpField, so the lower
    # module knows nothing of the grid's interface (a local named env is
    # not the grid's)
    attrs = {node.attr for node in ast.walk(ast.parse(
        (PACKAGE / "warp.py").read_text())) if isinstance(node, ast.Attribute)}
    assert not attrs & {"grid", "env", "axis_points", "_axes"}


def test_the_package_imports_no_module():
    # the modules are the API, so `import curvlab` loads none of them, and
    # no numpy
    proc = subprocess.run(
        [sys.executable, "-c", "import curvlab, sys; print(sorted(m for m in "
         "sys.modules if m.startswith('curvlab.') or m == 'numpy'))"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


# the curvlab modules each command line loads besides cli: a computing
# command loads errors, and with it numpy, and its own layers, and no
# others; the parse path (help, a usage error) loads none, and no numpy
SOLVERS = {"completeness", "expr", "geometry", "ode", "rk45", "serialize",
           "warp"}
TABLE = {"expr", "geometry", "polar", "serialize", "warp"}


@pytest.mark.parametrize("argv, modules", [
    (["--help"], set()),
    (["oracle", "--help"], set()),
    (["certify", "--help"], set()),
    (["certify", "--kind", "bogus"], set()),
    (["solve", "--n", "x"], set()),
    (["sweep"], set()),
    (["curvature", "--profile", "t", "--n", "3", "--t", "3:5:2"], TABLE),
    (["curvature", "--profile", "t*(2+cos(x1))", "--n", "2", "--t", "3",
      "--base", "torus", "--m", "4"], TABLE),
    (["oracle", "--profile", "t", "--n", "3", "--t", "3"], TABLE | {"oracle"}),
    (["raylength", "--u", "t^-2", "--n", "3"], SOLVERS - {"ode", "rk45"}),
    (["solve", "--n", "3", "--points", "20"], SOLVERS),
    (["certify", "--kind", "thm48", "--b", "1"], SOLVERS),
    (["sweep", "--c", "1.5:2:2"], SOLVERS),
], ids=["help", "oracle-help", "certify-help", "certify-bad-kind",
        "usage-error", "sweep-no-c", "curvature", "curvature-torus", "oracle",
        "raylength", "solve", "certify", "sweep"])
def test_each_command_loads_only_its_layers(argv, modules):
    script = ("import contextlib, io, sys\n"
              "from curvlab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()), "
              "contextlib.suppress(SystemExit):\n"
              "    main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.startswith('curvlab.')),\n"
              "      'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True, env=CHILD_ENV,
                          timeout=60)
    loaded = sorted(f"curvlab.{m}" for m in
                    {"cli"} | (modules | {"errors"} if modules else set()))
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        0, "", f"{loaded} {bool(modules)}\n")


def names_read_only_by_tests(package_paths, reader_paths):
    """Public top-level functions and classes of the package modules, and
    public methods of their classes, that no reader file reads, as (module
    stem, name).  The package modules read each other too, but a definition
    does not read itself: neither does a method of the same name, so a
    recursive unparse is not a reader of unparse."""
    defined, read = set(), set()

    def define(stem, node):
        """Count node as defined if public; return the names that a read
        inside node does not count for."""
        if node.name.startswith("_"):
            return set()
        defined.add((stem, node.name))
        return {node.name}

    for path in package_paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read |= names_read(node)
                continue
            own = define(path.stem, node)
            for sub in ast.iter_child_nodes(node):
                method = isinstance(node, ast.ClassDef) and \
                    isinstance(sub, ast.FunctionDef)
                read |= names_read(sub) - own - (
                    define(path.stem, sub) if method else set())
    for path in reader_paths:
        read |= names_read(ast.parse(path.read_text()))
    return {(stem, name) for stem, name in defined if name not in read}


def test_test_only_name_finder(tmp_path):
    (tmp_path / "a.py").write_text("def tested_only():\n"
                                   "    return tested_only()\n"
                                   "class Used:\n"
                                   "    def read(self):\n"
                                   "        return Used\n"
                                   "    def recursive(self):\n"
                                   "        return self.recursive()\n"
                                   "    def _private(self):\n"
                                   "        pass\n"
                                   "class Other(Used):\n"
                                   "    def recursive(self):\n"
                                   "        return Used.recursive(self)\n"
                                   "    def by_string(self):\n"
                                   "        pass\n"
                                   "def _private():\n"
                                   "    pass\n"
                                   "def patched():\n"
                                   "    pass\n"
                                   "def caller():\n"
                                   "    return Used().read(), Other()\n")
    (tmp_path / "b.py").write_text("from a import caller\n"
                                   "setattr(a, 'patched', None)\n"
                                   "getattr(a.Other, 'by_string')\n")
    assert names_read_only_by_tests([tmp_path / "a.py"], [tmp_path / "b.py"]) \
        == {("a", "tested_only"), ("a", "recursive")}


# public names kept with no reader but their tests: closed forms that open
# items are to reach (ROADMAP item 4's 50-digit check reads the power-law
# profile; item 6 puts the conformal curvature on the CLI), and expr's
# unparse, which the bit-for-bit round trip of tests/test_expr.py reads
# (ROADMAP item 4)
KEPT = ("power_law_curvature", "conformal_scalar_curvature", "unparse")


def test_every_public_name_has_a_reader_besides_its_tests():
    # the acceptance gate and perfbench read the package as users do
    left = names_read_only_by_tests(
        sorted(PACKAGE.glob("*.py")),
        sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
    assert sorted(name for _, name in left) == sorted(KEPT)
