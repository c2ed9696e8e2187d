"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import adjointlab
from adjointlab import cli

PACKAGE = Path(adjointlab.__file__).parent


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the package and its CLI must import
    # without it, so a scipy import in src/ fails here
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    subprocess.run(
        [sys.executable, "-c", "import adjointlab.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


def test_readme_library_example_runs():
    # the README's Library example runs as written, in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    (example,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, "-c", example], env=env, check=True)


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # is an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# calls that write artifacts or create directories
WRITERS = {"write_json", "write_csv", "svg_scatter", "mkdir"}


def _writer_callers(tree, module):
    """Names of the functions in `module` whose own bodies call a writer."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}:{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in WRITERS:
                    callers.add(owner)
            visit(child, owner)

    visit(tree, f"{module}:<module>")
    return callers


def test_only_main_writes_artifacts():
    # subcommands return what they computed and cli.main alone writes it, so
    # that no exit-2 path can leave an artifact or a directory behind
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _writer_callers(ast.parse(path.read_text()), path.name)
    assert found == {"cli.py:main"}


# (handler, exception) pairs a subcommand handler may catch: a product off
# the log's principal branch means bch_n is too large, a config error
HANDLER_EXCEPTS = {("_cmd_bch", "LogRangeError")}


def test_handlers_let_outcomes_through():
    # module outcomes pass through the subcommand handlers to cli.main, which
    # maps each by name; a handler that catches one redoes main's work
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_cmd_"):
                found |= {(stmt.name, ast.unparse(node.type) if node.type else "")
                          for node in ast.walk(stmt) if isinstance(node, ast.ExceptHandler)}
    assert found == HANDLER_EXCEPTS


def test_handlers_restate_no_module_rule():
    # a class's verdict is its module's: no handler reads the Weyl group to
    # predict one or adds a falsification to a report a module returned
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_cmd_")):
                continue
            found += [(stmt.name, ast.unparse(node)) for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)
                      and (node.attr == "weyl_root_matrices"
                           or ast.unparse(node).endswith(".falsifications.append"))]
    assert found == []


def _names(tree):
    """Every name that `tree` reads: variables, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_private_definitions_are_used():
    # a private module-level function or class that no other statement of
    # the package names is dead code
    private, statements = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((stmt, _names(stmt)))
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                private.append((f"{path.name}:{stmt.name}", stmt))
    unused = [
        label for label, definition in private
        if not any(definition.name in names
                   for stmt, names in statements if stmt is not definition)
    ]
    assert private
    assert unused == []


def test_parameters_are_read():
    # a module-level function that never reads one of its parameters takes
    # an argument for nothing; the subcommand handlers share one (cfg, rs)
    # signature, so they are exempt
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_cmd_"):
                continue
            args = stmt.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            read = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{stmt.name}({p.arg})"
                       for p in params if p is not None and p.arg not in read]
    assert unread == []


def test_readme_flag_table_matches_the_cli(monkeypatch):
    # README's table of flags, defaults and "taken by" subcommands against
    # cli._KEYS and cli.SUBCOMMANDS; --seed and --out, which every
    # subcommand takes, are described above the table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        if line.startswith("| `--"):
            flag, default, taken_by = (cell.strip() for cell in line.strip("|").split("|")[:3])
            key = flag.strip("`").split()[0][2:].replace("-", "_")
            rows[key] = (default.replace("`", ""), taken_by)
    readers = {}
    for sub, (_, keys) in cli.SUBCOMMANDS.items():
        for key in keys:
            if cli._KEYS[key][1] is not None:
                readers.setdefault(key, set()).add(sub)
    assert set(rows) == set(readers)

    def resolved_grid(label):
        # the grid _run hands a handler when the config leaves it unset
        monkeypatch.setitem(cli.SUBCOMMANDS, "estimate-c", (lambda cfg, rs: cfg["grid"], ()))
        return cli._run("estimate-c", {"type": label, "grid": None})

    for key, (default, taken_by) in rows.items():
        value = cli._KEYS[key][0]
        if key == "grid":
            expected = f"{resolved_grid('A1')} / {resolved_grid('A2')}"
        elif isinstance(value, list):
            expected = " ".join(map(str, value))
        else:
            expected = str(value)
        assert default == expected, key
        if taken_by == "all but verify-all":
            subs = set(cli.SUBCOMMANDS) - {"verify-all"}
        else:
            subs = set(taken_by.split(", "))
        assert subs == readers[key], key
