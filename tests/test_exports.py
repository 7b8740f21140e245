"""Every exported name resolves, every public name has a caller outside the
tests, every exported function is read outside its own module, no file
imports a name it never reads, no module imports another module's private
names, no default is one that every caller overrides, no parameter is one
constant that every caller passes, only the kernel modules take singular
values, only _blocks starts threads or processes, and every dataclass is
frozen."""

import ast
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import detbundle

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> list[types.ModuleType]:
    return [importlib.import_module(f"detbundle.{m.name}")
            for m in pkgutil.iter_modules(detbundle.__path__) if m.name != "__main__"]


def test_every_name_in_every_all_resolves():
    missing = [f"{mod.__name__}.{name}" for mod in [detbundle, *_modules()]
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_each_public_name_is_declared_once():
    # a module's __all__ is the one declaration of the names it exports: no
    # name sits in two lists, a listed function or class is defined where it
    # is listed, and the package re-exports every list but verify's and cli's
    owners: dict[str, list[str]] = {}
    foreign = []
    for mod in _modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for name in getattr(mod, "__all__", ()):
            owners.setdefault(name, []).append(short)
            value = getattr(mod, name)
            if callable(value) and value.__module__ != mod.__name__:
                foreign.append(f"{short}.{name} from {value.__module__}")
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}
    assert foreign == []
    exported = {n for n, m in owners.items() if m[0] not in ("verify", "cli")}
    assert set(detbundle.__all__) - {"__version__"} == exported


@functools.cache
def _names_read(path: Path) -> set[str]:
    """Names a file reads, as bare names or as attributes."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _caller_files() -> list[Path]:
    """The modules of src/ but __init__.py, and the demos."""
    files = [p for p in (ROOT / "src" / "detbundle").glob("*.py") if p.name != "__init__.py"]
    return files + list((ROOT / "demos").glob("*.py"))


def _tracer_targets() -> set[str]:
    """The benchmark tracer's target paths, which count as callers since the
    tracer wraps them by name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {path for _, path, _ in tracer.TARGETS}


def _callers() -> set[str]:
    """Names read in src/ or demos/, plus the tracer's target paths."""
    return set().union(*map(_names_read, _caller_files())) | _tracer_targets()


def test_every_public_name_has_a_caller_outside_tests():
    # a public helper that only its own tests call is a twin to delete or an
    # oracle to move into the tests
    callers = _callers()
    uncalled = [name for name in detbundle.__all__
                if name != "__version__" and name not in callers]
    assert uncalled == []


def test_every_exported_function_is_read_outside_its_module():
    # a function that only its own module reads is an internal helper, which
    # tests import by module path; classes are exempt, since they name the
    # values the package hands out
    targets = _tracer_targets()
    internal = []
    for name in detbundle.__all__:
        fn = getattr(detbundle, name)
        if not inspect.isfunction(fn) or name in targets:
            continue
        home = fn.__module__.rsplit(".", 1)[1] + ".py"
        if not any(name in _names_read(p) for p in _caller_files() if p.name != home):
            internal.append(name)
    assert internal == []


def test_every_public_member_has_a_caller_outside_tests():
    # the same rule for the methods and properties of the exported classes.
    # The scan matches attribute names only, so a member is counted as read
    # when another class's member of the same name is: it cannot see that
    # Projection.complement or CylinderFamily.dim would have no reader.
    callers = _callers()
    uncalled = []
    for name in detbundle.__all__:
        cls = getattr(detbundle, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            if member.startswith("_") or not isinstance(value, (
                    property, functools.cached_property, classmethod, staticmethod,
                    types.FunctionType)):
                continue
            if member not in callers and f"{name}.{member}" not in callers:
                uncalled.append(f"{name}.{member}")
    assert uncalled == []


def test_no_file_imports_a_name_it_never_reads():
    # __init__.py imports to re-export, so it is the one file exempt
    files = [p for p in (ROOT / "src" / "detbundle").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    unread = []
    for path in sorted(files):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.relative_to(ROOT)}: {bound}")
    assert unread == []


def test_no_module_imports_another_modules_private_names():
    # a private name stays inside its module; _blocks, the shared kernel
    # module, is the one exception
    leaks = []
    for path in sorted((ROOT / "src" / "detbundle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level and node.module):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and node.module != "_blocks":
                    leaks.append(f"{path.name}: {node.module}.{alias.name}")
    assert leaks == []


def _takes_singular_values(node) -> bool:
    """An svd, or a norm whose ord (2, -2 or "nuc") is a function of the singular values."""
    if isinstance(node, ast.Attribute):
        return node.attr == "svd" and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "norm"
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"):
        return False
    for o in [k.value for k in node.keywords if k.arg == "ord"] + node.args[1:2]:
        try:
            if ast.literal_eval(o) in (2, -2, "nuc"):
                return True
        except ValueError:  # a computed ord may be one of them
            return True
    return False


def test_only_blocks_and_opcalc_take_singular_values():
    # _blocks owns the extreme singular values and the condition bound, and
    # opcalc the Schatten norms; every other module asks one of them
    sites = []
    for path in sorted((ROOT / "src" / "detbundle").glob("*.py")):
        if path.name in ("_blocks.py", "opcalc.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if _takes_singular_values(node):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def _concurrency_sites(tree) -> list[int]:
    """Lines that import threading, concurrent.futures or multiprocessing, or fork."""
    owners = ("threading", "concurrent", "multiprocessing")
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "os" and any(alias.name == "fork" for alias in node.names):
                lines.append(node.lineno)
        else:
            if (isinstance(node, ast.Attribute) and node.attr == "fork"
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                lines.append(node.lineno)
            continue
        if any(m.split(".")[0] in owners for m in modules):
            lines.append(node.lineno)
    return lines


def test_only_blocks_starts_threads_or_processes():
    # _blocks splits its large stacks over two threads, with outputs that do
    # not depend on the split; every other module stays single-threaded
    sites = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "detbundle").glob("*.py")) if path.name != "_blocks.py"
             for line in _concurrency_sites(ast.parse(path.read_text()))]
    assert sites == []
    assert _concurrency_sites(ast.parse((ROOT / "src" / "detbundle" / "_blocks.py").read_text()))


def test_every_open_names_its_encoding():
    # the locale's encoding and line ending vary between machines; a named
    # encoding, and a named newline where a file is written, read and write
    # the same bytes on every machine
    unnamed = []
    for path in sorted((ROOT / "src" / "detbundle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            named = {k.arg for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            writes = set(ast.literal_eval(mode)) & set("wax+")
            if "encoding" not in named or (writes and "newline" not in named):
                unnamed.append(f"{path.name}:{node.lineno}")
    assert unnamed == []


def test_every_dataclass_is_frozen():
    # a record is a value: no reader or check can rewrite what it was handed,
    # and a field is set only in the constructor
    thawed = []
    for path in sorted((ROOT / "src" / "detbundle").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for dec in cls.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if ast.unparse(call.func if call else dec) != "dataclass":
                    continue
                if not (call and any(k.arg == "frozen" and ast.literal_eval(k.value) is True
                                     for k in call.keywords)):
                    thawed.append(f"{path.name}: {cls.name}")
    assert thawed == []


def _dataclass_fields(cls: ast.ClassDef) -> tuple[list[str], list[str]]:
    """(fields, defaulted fields) of a dataclass in declaration order; a
    field(...) value is a default only with a default or a default_factory."""
    names, named = [], []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
            value = stmt.value
            if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
                value = next((k for k in value.keywords
                              if k.arg in ("default", "default_factory")), None)
            if value is not None:
                named.append(stmt.target.id)
    return names, named


def _defaulted_parameters(path: Path) -> list[tuple[str, list[str], list[str]]]:
    """(callee name, positional parameters, defaulted parameters) per function
    of a file and per dataclass.  A method drops its self, and __init__ and a
    dataclass's fields are called by the class name."""
    tree = ast.parse(path.read_text())
    out = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list):
            out.append((cls.name, *_dataclass_fields(cls)))
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            skip = int(isinstance(scope, ast.ClassDef) and "staticmethod" not in map(
                ast.unparse, fn.decorator_list))
            pos = [a.arg for a in fn.args.posonlyargs + fn.args.args][skip:]
            named = pos[len(pos) - len(fn.args.defaults):] if fn.args.defaults else []
            named += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
            out.append((scope.name if fn.name == "__init__" else fn.name, pos, named))
    return out


@functools.cache
def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/, tests/, demos/ and perfbench/, keyed by its bare or
    attribute name."""
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    calls.setdefault(name, []).append(node)
    return calls


def test_no_default_is_overridden_by_every_caller():
    # a default that every call overrides is one no caller takes; drop it.
    # Dataclass fields count as parameters of their class.  Calls match by
    # bare or attribute name, so every same-named call must override, and a
    # call with *args or **kwargs counts as overriding
    calls = _calls()

    def overrides(call: ast.Call, pos: list[str], param: str) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg in (None, param) for k in call.keywords):
            return True
        return param in pos and pos.index(param) < len(call.args)

    unused = []
    for path in sorted((ROOT / "src" / "detbundle").glob("*.py")):
        for name, pos, named in _defaulted_parameters(path):
            sites = calls.get(name, [])
            unused += [f"{path.name}: {name}({param})" for param in named
                       if sites and all(overrides(c, pos, param) for c in sites)]
    assert unused == []


def test_no_parameter_is_always_the_same_constant():
    # a parameter that every call fills from the same module constant is that
    # constant; the callee should read it.  Calls match by bare or attribute
    # name, and a call with *args or **kwargs, or one that leaves the
    # parameter to its default, passes no constant
    calls = _calls()

    def constant(call: ast.Call, pos: list[str], param: str) -> str | None:
        if any(isinstance(a, ast.Starred) for a in call.args):
            return None
        arg = next((k.value for k in call.keywords if k.arg == param), None)
        if arg is None and param in pos and pos.index(param) < len(call.args):
            arg = call.args[pos.index(param)]
        name = arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", None)
        return name if name and name.isupper() else None

    fixed = []
    for path in sorted((ROOT / "src" / "detbundle").glob("*.py")):
        for name, pos, _ in _defaulted_parameters(path):
            sites = calls.get(name, [])
            for param in pos:
                names = {constant(c, pos, param) for c in sites}
                if sites and len(names) == 1 and None not in names:
                    fixed.append(f"{path.name}: {name}({param}) <- {names.pop()}")
    assert fixed == []
