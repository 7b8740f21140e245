"""Every exported name resolves, so a deleted function cannot stay exported."""

import importlib
import pkgutil

import detbundle


def test_every_name_in_every_all_resolves():
    modules = [detbundle] + [importlib.import_module(f"detbundle.{m.name}")
                             for m in pkgutil.iter_modules(detbundle.__path__)
                             if m.name != "__main__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
