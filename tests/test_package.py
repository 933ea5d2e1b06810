"""The package's public surface and its layers: `__all__` names exactly
the public names that `densctl` binds, so a name deleted from a module
but left in `__all__` fails here; and every module imports only from
the modules below it."""

import ast
import types
from pathlib import Path

import densctl

# each module may import only from the modules before it
LAYERS = ("errors", "expressions", "grid", "fields", "model", "operators",
          "sampling", "spectral", "pde", "inverse", "config", "output", "cli")


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from densctl import *", namespace)
    assert set(densctl.__all__) <= set(namespace)


def test_all_lists_each_public_binding_once():
    assert len(densctl.__all__) == len(set(densctl.__all__))
    public = {name for name, value in vars(densctl).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(densctl.__all__) == public


def test_every_module_imports_only_from_lower_layers():
    src = Path(densctl.__file__).parent
    assert {p.stem for p in src.glob("*.py")} == {"__init__", *LAYERS}
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module is None:
                # `from . import __version__`, the package's version
                assert name == "output", f"{name}: from . import ..."
                assert [a.name for a in node.names] == ["__version__"]
                continue
            assert node.module in LAYERS[:rank], \
                f"{name} imports from .{node.module} (line {node.lineno})"
