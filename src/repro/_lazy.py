"""PEP 562 lazy attributes for package roots.

A package root that imports its submodules eagerly makes every import
of the package pay for all of them: numpy for ``repro --version``,
scipy for every verb.  :func:`lazy_attributes` gives a root the module
``__getattr__`` and ``__dir__`` that import a submodule on first use
of one of its names instead.
"""

import importlib
import sys
import types


def lazy_attributes(namespace: dict, exports: dict, submodules=()):
    """The ``(__getattr__, __dir__)`` pair of a lazy package root.

    ``namespace`` is the root's ``globals()``; ``exports`` maps each
    submodule (relative to the root) to the public names it defines;
    ``submodules`` are public submodules returned as themselves.
    """
    package = namespace["__name__"]
    source_of = {name: source for source, names in exports.items()
                 for name in names}

    class LazyPackage(types.ModuleType):
        def __setattr__(self, name, value):
            # Loading a submodule binds it on its package; an export
            # named like its own submodule (calibrate.reconstruct, the
            # function) stays bound to the export.
            if source_of.get(name) == name \
                    and isinstance(value, types.ModuleType):
                value = getattr(value, name)
            super().__setattr__(name, value)

    sys.modules[package].__class__ = LazyPackage

    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f".{name}", package)
        if name not in source_of:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{source_of[name]}", package)
        namespace[name] = getattr(module, name)
        return namespace[name]

    def __dir__():
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__
