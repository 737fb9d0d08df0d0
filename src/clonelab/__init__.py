"""Clone-aware voting: clone structures, PQ-trees, composition-consistent
rules, axiom verification, and strategic-candidacy games."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# in dependency order: each module imports only modules before it
_MODULES = ("profiles", "clones", "pqtree", "scf", "spf", "transform", "games", "axioms")


def __getattr__(name: str):
    """A submodule, or a name from a submodule's ``__all__``, imported on first use (PEP 562)."""
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [*_MODULES, *(n for m in _MODULES for n in __getattr__(m).__all__)]
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
