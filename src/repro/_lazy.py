"""Import on use: PEP 562 exports for the package facades.

A facade (``repro``, ``repro.core``, ``repro.obs`` ...) declares what it
exports as one table, ``{submodule: (name, ...)}``, and gets its
``__getattr__``, ``__dir__`` and ``__all__`` from :func:`attach`.
Nothing is imported until a name is first touched; the defining
submodule is then imported, the object cached in the facade's globals
(so ``__getattr__`` runs once per name), and every later access is a
plain attribute read.  ``from repro.core import *``, ``dir()``,
``help()`` and submodule attribute access (``repro.core.fusion``) all
work as they do for eager re-exports.

A cold start therefore compiles and executes only the modules its job
touches.  The rule that keeps warm jobs free of import machinery: lazy
lookups and deferred imports belong in facades, constructors, CLI
handlers and cold functions — never on a per-job or per-message path.
Hot modules import their collaborators by full submodule path at their
own top (``from repro.core.reduce import global_reduce``), not through
a facade.  ``tests/test_import_layout.py`` holds both halves.
"""

import sys

__all__ = ["attach"]


def _load(name: str):
    # builtins.__import__, looked up per call: a test that poisons it
    # also catches a lazy export first resolved on a warm path.
    __import__(name)
    return sys.modules[name]


def attach(module_name: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """Lazy exports for the module being initialised as ``module_name``.

    ``exports`` maps a submodule path to the names it defines; paths are
    relative to the module's package (children of a package, siblings of
    a plain module).  Returns ``(__getattr__, __dir__, __all__)`` with
    ``__all__`` in table order.
    """
    module = sys.modules[module_name]
    package = module.__package__
    is_package = hasattr(module, "__path__")
    table = {
        name: f"{package}.{sub}" for sub, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        missing = AttributeError(f"module {module_name!r} has no attribute {name!r}")
        target = table.get(name)
        if target is not None:
            value = getattr(_load(target), name)
        elif not is_package or name.startswith("__"):
            raise missing
        else:
            # ``repro.core.fusion`` without a prior ``import repro.core.fusion``.
            target = f"{module_name}.{name}"
            try:
                value = _load(target)
            except ModuleNotFoundError as exc:
                if exc.name != target:
                    raise
                raise missing from None
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(table))

    # An export named like its own submodule (``bucket_sort`` from
    # ``intsort/bucket_sort.py``) cannot wait: whoever imports that
    # submodule first has the import system bind the *module* under the
    # name, and ``__getattr__`` is never asked.  Bind the export now.
    for name in table.keys() & exports.keys():
        __getattr__(name)

    return __getattr__, __dir__, list(table)
