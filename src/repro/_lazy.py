"""Export tables: a package facade that imports a submodule on first use.

Each package ``__init__`` lists ``submodule -> [names it exports]`` and
installs the PEP 562 hooks built here, so ``import repro`` executes no
submodule until one of its names is asked for.
"""

from importlib import import_module


def lazy_exports(namespace, exports):
    """Return ``(__getattr__, __dir__)`` for the package owning *namespace*.

    A name listed in *exports* resolves to that attribute of its
    submodule; any other name is tried as a plain submodule.  Either way
    the value is cached in *namespace*, so the hook runs once per name.
    """
    package = namespace["__name__"]
    origin = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name):
        submodule = origin.get(name, name)
        try:
            module = import_module("." + submodule, package)
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{submodule}":
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(module, name) if name in origin else module
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__
