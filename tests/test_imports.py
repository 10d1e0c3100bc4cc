"""What `closedpoly` imports: every name a module imports is used in that
module (`__init__.py` is left out: it imports names to re-export them), and
start-up loads none of the stdlib introspection modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

import closedpoly

# (module file, name) -> why the module keeps an import it does not use
ALLOWED_UNUSED = {
    ("family.py", "compose_uni"):
        "perfbench/spans.py binds closedpoly.family:compose_uni (ROADMAP item 2)",
    ("decompose.py", "monomials_below"):
        "perfbench/spans.py binds closedpoly.decompose:monomials_below (ROADMAP item 2)",
}


def unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used():
    package = Path(closedpoly.__file__).parent
    unused = {(path.name, name)
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for name in unused_imports(path)}
    assert unused == set(ALLOWED_UNUSED)


# The library calls none of these, and `dataclasses` alone pulls in the
# other four, about 7 ms of start-up.
NOT_AT_START_UP = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_start_up_loads_no_introspection_modules():
    """A fresh interpreter imports the package and its CLI.  Only modules the
    import adds count, so a `site` that preloads one of them does not fail this."""
    src = str(Path(closedpoly.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
             "import closedpoly, closedpoly.cli; "
             f"print(sorted((set(sys.modules) - before) & set({NOT_AT_START_UP!r})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_builds_no_parser():
    """The CLI parser is built by the first call, not by importing the CLI."""
    src = str(Path(closedpoly.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import closedpoly.cli; "
             "print(closedpoly.cli.build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "0"
