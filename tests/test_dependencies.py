import ast
import importlib
import re
import sys
from collections import defaultdict
from pathlib import Path

import phonesim

PACKAGE = Path(phonesim.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
BENCH_TRACING = PYPROJECT.parent / "bench" / "tracing.py"


def third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"phonesim"}


def test_the_program_imports_only_yaml_outside_the_standard_library():
    """`yaml` is the `pyyaml` entry of pyproject.toml; the chat client runs on
    `urllib.request`, so no HTTP library is a dependency."""
    assert third_party_imports() == {"yaml"}


def test_pyproject_declares_only_pyyaml():
    text = PYPROJECT.read_text("utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, flags=re.M | re.S).group(1)
    assert re.findall(r'"([^"]+)"', block) == ["pyyaml>=6.0"]


def traced_targets() -> dict[str, list[tuple[str, str]]]:
    """The (module, attribute) targets of each span name in the bench
    tracer's TARGETS, read from its source without importing it."""
    tree = ast.parse(BENCH_TRACING.read_text("utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    targets = defaultdict(list)
    for name, module, path in ast.literal_eval(value):
        targets[name].append((module, path))
    return targets


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_span_the_bench_traces_has_a_target_in_the_program():
    """The tracer drops a span name's per-layer metric only when none of its
    targets resolve, and the bench's per-layer check then fails. A name may
    keep a stale target beside a live one, as `apps.build_app` does."""
    targets = traced_targets()
    assert len(targets) > 20
    dead = [name for name, where in targets.items()
            if not any(resolves(module, path) for module, path in where)]
    assert dead == []
