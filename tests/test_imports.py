"""Every module-level import in src/ and tests/ is read somewhere in its
module, every module-level function in src/ has a reader, and a state
crosses a module boundary only through fano's public gate and its record.

No linter ships with the project, so this walks the syntax trees with the
standard library's ast.  Package __init__.py files are skipped: their
imports are re-exports.  The README's library tour runs as written.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module_imports(tree):
    """(name bound, line) for each import in the module body, through if/try."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse
            stack += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                stack += handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in read
    ]


def test_no_unused_module_level_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [
        hit for path in paths if path.name != "__init__.py" for hit in _unused_imports(path)
    ]
    assert unused == []


def test_package_exports_exactly_its_public_names():
    # __all__ is built from the package's imports; no submodule leaks into it
    import lazystates

    assert sorted(lazystates.__all__) == sorted(
        """CensusReport Classification ConsistencyError DEFAULT_TOL DynamicsCheckReport
        FanoParams LazyDiscordantParams NormalForm REGION_LABELS SeparableFamilyParams
        SliceGrid StateFileError __version__ bd_census bd_compose bd_region bd_slice
        census_to_csv classify compose decompose laziness_dynamics_check
        lazy_discordant_compose load_state_file normal_form save_state_file
        separable_classify separable_compose slice_to_csv""".split()
    )


def test_every_function_in_src_is_read_exported_or_called_in_the_readme():
    # a module-level function that src/ never reads, the package does not
    # export and no README recipe calls has only the tests for a caller:
    # such a function belongs in tests/oracles.py.  A name the README only
    # mentions (a removed one, say) does not count as a recipe
    import lazystates

    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))]
    defined = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = [
        name for name in defined
        if name not in read
        and name not in lazystates.__all__
        and not re.search(rf"\b{re.escape(name)}\(", readme)
    ]
    assert unread == []


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert tour is not None
    exec(compile(tour.group(1), "README.md (library tour)", "exec"), {})


# matcore's argument and shape rules: the one private family that every
# entry shares
SHARED_RULES = re.compile(r"_(require|as|is)_\w+")
# the private state helpers that fano's gate and its record replaced
RETIRED = ("_gate", "_Gated", "_decomposed", "_certified", "_coeffs", "_commutator_witness")


def _sibling_imports(path):
    """(sibling module, name) for each name a src/ module imports from its
    own package, at any depth of the module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("lazystates")
        ):
            module = (node.module or "").removeprefix("lazystates").lstrip(".")
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lazystates."):
                    yield alias.name.removeprefix("lazystates."), None


def test_a_state_crosses_modules_only_through_public_names():
    paths = sorted((ROOT / "src" / "lazystates").glob("*.py"))
    private = [
        f"{path.name}: {module}.{name}"
        for path in paths
        for module, name in _sibling_imports(path)
        if name is not None
        and name.startswith("_")
        and not (name.startswith("__") and name.endswith("__"))
        and not (module == "matcore" and SHARED_RULES.fullmatch(name))
    ]
    assert private == []
    dynamics = ROOT / "src" / "lazystates" / "dynamics.py"
    assert [m for m, _ in _sibling_imports(dynamics) if m == "classify"] == []
    retired = [
        f"{path.name}: {name}"
        for path in paths
        for name in RETIRED
        if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))
    ]
    assert retired == []
