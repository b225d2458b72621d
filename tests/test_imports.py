"""Import-completeness: every module imports cleanly, every __all__ resolves.

Guards against circular imports and stale re-export lists anywhere in
the package tree (a failure mode the energy/pim cycle demonstrated).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro


def iter_modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULES = sorted(set(iter_modules()))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_module_count_sanity():
    # the package tree should stay substantial; catches packaging regressions
    assert len(MODULES) > 45, MODULES


# -- reachability -----------------------------------------------------------

SRC = Path(repro.__file__).parent

#: Modules no command reaches that stay on purpose, each with its reason.
UNREACHED_BY_DESIGN = {
    "repro.baselines.gotoh2p": "reference oracle for the two-piece affine WFA",
    "repro.baselines.gotoh_endsfree": "reference oracle for ends-free WFA spans",
    "repro.baselines.myers_ond": "reference oracle for WFA's indel distance",
    "repro.data.simulator": "builds the `repro map` and PAF test inputs",
}


def _parse_tree() -> tuple[dict[str, ast.Module], set[str]]:
    """Every module of the package, parsed, and the names of the packages."""
    trees, packages = {}, set()
    for path in SRC.rglob("*.py"):
        parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return trees, packages


def reachable_modules(
    entry: str, trees: dict[str, ast.Module], packages: set[str]
) -> set[str]:
    """Modules of ``repro`` that an import walk from ``entry`` reaches.

    A plain module counts every import it contains, lazy ones included.
    A package ``__init__`` counts an import only for the names something
    actually imports from the package; otherwise its re-export lists
    would make every module look reached.  Imports are absolute, as
    everywhere in the package.
    """
    reached: set[str] = set()
    resolved: set[tuple[str, str]] = set()

    def reach(module: str) -> None:
        parts = module.split(".")
        for i in range(1, len(parts)):
            reached.add(".".join(parts[:i]))  # parent packages run first
        if module in reached or module not in trees:
            return
        reached.add(module)
        if module in packages:
            return
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reach(alias.name)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    take(node.module, alias.name)

    def take(module: str, name: str) -> None:
        """Follow ``from module import name``."""
        if module not in packages:
            reach(module)
        elif f"{module}.{name}" in trees:
            reach(f"{module}.{name}")
        elif (module, name) not in resolved:
            resolved.add((module, name))
            reach(module)
            for node in trees[module].body:
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            take(node.module, alias.name)

    reach(entry)
    return reached


def test_every_module_is_reached_from_the_cli():
    trees, packages = _parse_tree()
    modules = set(trees)
    reached = reachable_modules("repro.cli", trees, packages)
    unreached = sorted(modules - reached - set(UNREACHED_BY_DESIGN))
    assert not unreached, f"no command reaches {unreached}: delete them"
    stale = sorted(set(UNREACHED_BY_DESIGN) & reached)
    assert not stale, f"{stale} are reached now: drop them from the allowlist"
    assert set(UNREACHED_BY_DESIGN) <= modules
