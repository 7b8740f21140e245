"""Every exported name resolves, and every public name has a caller outside the tests."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import detbundle

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_every_all_resolves():
    modules = [detbundle] + [importlib.import_module(f"detbundle.{m.name}")
                             for m in pkgutil.iter_modules(detbundle.__path__)
                             if m.name != "__main__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _names_read(path: Path) -> set[str]:
    """Names a file reads, as bare names or as attributes."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_public_name_has_a_caller_outside_tests():
    # a public helper that only its own tests call is a twin to delete or an
    # oracle to move into the tests; the benchmark tracer's targets count as
    # callers, since the tracer wraps them by name
    files = [p for p in (ROOT / "src" / "detbundle").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").glob("*.py")
    read = set().union(*(_names_read(p) for p in files))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {path for _, path, _ in tracer.TARGETS}
    uncalled = [name for name in detbundle.__all__
                if name != "__version__" and name not in read | wrapped]
    assert uncalled == []
