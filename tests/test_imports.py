"""Every module-level import in src/ and tests/ is read somewhere in its module.

No linter ships with the project, so this walks the syntax trees with the
standard library's ast.  Package __init__.py files are skipped: their
imports are re-exports.
"""

import ast
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
        FanoParams LazyDiscordantParams NormalForm PhysicalityReport REGION_LABELS
        SeparableFamilyParams SliceGrid StateFileError __version__ bd_census bd_compose
        bd_region bd_slice bd_spectrum census_to_csv classify compose decompose
        is_product laziness_dynamics_check lazy_by_commutator
        lazy_by_parallelism lazy_discordant_compose lazy_discordant_spectrum
        load_state_file normal_form pure_schmidt save_state_file separable_classify
        separable_compose separable_fano separable_ppt slice_to_csv validate
        zero_discord_a""".split()
    )
