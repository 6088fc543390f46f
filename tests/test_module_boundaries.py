"""Source-tree checks: no diarkit module reaches into another module's private
names, only the container and embeddings modules touch raw blocks and
sidecars, and the stage modules take arrays, not embedding sequences."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diarkit"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) of every private name imported from, or looked up on, another module."""
    found = []
    modules = set()  # local names bound to imported modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if _private(alias.name) or any(map(_private, (node.module or "").split("."))):
                    found.append((node.lineno, f"from {source} import {alias.name}"))
                if node.module is None:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if any(map(_private, alias.name.split("."))):
                    found.append((node.lineno, f"import {alias.name}"))
                modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_uses_another_modules_private_names():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    offenders = [
        f"{path.name}:{line}: {text}"
        for path in sources
        for line, text in _private_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def test_private_name_check_sees_each_form():
    tree = ast.parse(
        "from .pipeline import _domain_table\n"
        "from . import container\n"
        "import numpy as np\n"
        "from . import __version__\n"
        "x = container._read(np._core)\n"
        "y = container.read_sidecar\n"
    )
    assert _private_uses(tree) == [
        (1, "from .pipeline import _domain_table"),
        (5, "container._read"),
        (5, "np._core"),
    ]


# the raw container calls; every other module goes through the typed-file pair
_RAW_IO = {"write_blocks", "read_blocks", "write_sidecar", "read_sidecar"}
_RAW_IO_OWNERS = {"container.py", "embeddings.py"}


def _raw_io_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every raw container function imported or looked up."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in _RAW_IO]
        elif isinstance(node, ast.Attribute) and node.attr in _RAW_IO:
            found.append((node.lineno, node.attr))
    return found


def test_only_container_and_embeddings_use_raw_blocks_and_sidecars():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in _RAW_IO_OWNERS
        for line, name in _raw_io_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def test_raw_io_check_sees_each_form():
    tree = ast.parse(
        "from .container import read_blocks, write_typed\n"
        "from . import container\n"
        "container.write_sidecar(p, {})\n"
        "x = container.read_typed\n"
    )
    assert _raw_io_uses(tree) == [(1, "read_blocks"), (3, "write_sidecar")]


# stages below the pipeline take and return arrays; only the pipeline knows
# a recording's windows and their times
_ARRAY_STAGES = ("scoring.py", "clustering.py", "reseg.py", "metrics.py")


def test_stage_modules_do_not_import_embedding_sequences():
    offenders = [
        f"{name}:{node.lineno}"
        for name in _ARRAY_STAGES
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
        if isinstance(node, ast.ImportFrom) and "EmbeddingSequence" in {a.name for a in node.names}
    ]
    assert offenders == []
