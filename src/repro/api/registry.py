"""Declarative, introspectable router registry.

Every routing algorithm announces itself with the :func:`register_router`
class decorator::

    @register_router("tket", aliases=("tket-like", "pytket"),
                     description="time-sliced max-distance router")
    class TketLikeRouter(RoutingEngine):
        ...

The registry maps both canonical names and aliases (case-insensitively) to a
single :class:`RouterSpec` carrying the metadata downstream consumers need:
the canonical name, the aliases, the factory class, the configuration class
(for routers such as Qlosure that take a config object instead of a bare
seed) and a one-line description.  :func:`router_names` lists canonical names
only, so aliases never show up as duplicate entries.

The built-in routers live in ``repro.baselines`` and ``repro.core``; they are
imported lazily on first lookup so this module stays import-cycle free (the
router modules themselves import :func:`register_router` from here).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Modules whose import registers the built-in routers (in listing order).
_BUILTIN_ROUTER_MODULES = (
    "repro.core.router",
    "repro.baselines.sabre",
    "repro.baselines.qmap_like",
    "repro.baselines.cirq_like",
    "repro.baselines.tket_like",
    "repro.baselines.greedy",
)


class UnknownRouterError(KeyError):
    """Raised when a router name (or alias) is not in the registry."""

    def __str__(self) -> str:  # KeyError wraps its message in quotes otherwise
        return self.args[0] if self.args else ""


class RegistryError(ValueError):
    """Raised on invalid registrations (duplicate names, clashing aliases)."""


@dataclass(frozen=True)
class RouterSpec:
    """Metadata and factory for one registered routing algorithm."""

    name: str
    factory: Callable[..., Any]
    aliases: tuple[str, ...] = ()
    config_class: type | None = None
    description: str = ""
    kind: str = "baseline"

    @property
    def all_names(self) -> tuple[str, ...]:
        """Canonical name followed by every alias."""
        return (self.name, *self.aliases)

    def make(self, coupling, seed: int = 0, config: Any = None):
        """Instantiate the router for ``coupling``.

        Routers with a ``config_class`` are built as ``factory(coupling,
        config)``; when no config is given one is derived from ``seed``
        (``config_class(seed=seed)``).  Plain routers are built as
        ``factory(coupling, seed=seed)`` and reject an explicit config.
        """
        if self.config_class is not None:
            if config is None:
                config = self.config_class(seed=seed)
            elif not isinstance(config, self.config_class):
                raise TypeError(
                    f"router {self.name!r} expects a {self.config_class.__name__}, "
                    f"got {type(config).__name__}"
                )
            return self.factory(coupling, config)
        if config is not None:
            raise TypeError(f"router {self.name!r} does not take a config object")
        return self.factory(coupling, seed=seed)

    def describe(self) -> dict:
        """Flat introspection record (used by ``repro-map backends``)."""
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "kind": self.kind,
            "config_class": self.config_class.__name__ if self.config_class else None,
            "description": self.description,
            "factory": f"{self.factory.__module__}.{self.factory.__qualname__}",
        }


#: canonical name -> spec, in registration order.
_SPECS: dict[str, RouterSpec] = {}
#: lowercase name or alias -> canonical name.
_LOOKUP: dict[str, str] = {}
_builtins_loaded = False


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    # Flag only flips after every module imported: a transient import failure
    # leaves the registry retryable instead of permanently half-populated.
    # (Successfully imported modules are cached in sys.modules, so a retry
    # does not re-run their decorators.)
    for module in _BUILTIN_ROUTER_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def register_router(
    name: str,
    *,
    aliases: tuple[str, ...] | list[str] = (),
    config_class: type | None = None,
    description: str = "",
    kind: str = "baseline",
) -> Callable:
    """Class decorator registering a router under ``name`` (plus ``aliases``).

    The decorated class is returned unchanged apart from a ``router_spec``
    attribute pointing at its :class:`RouterSpec`.
    """

    def decorator(cls):
        spec = RouterSpec(
            name=name,
            factory=cls,
            aliases=tuple(aliases),
            config_class=config_class,
            description=description,
            kind=kind,
        )
        _register_spec(spec)
        cls.router_spec = spec
        return cls

    return decorator


def _register_spec(spec: RouterSpec) -> None:
    for candidate in spec.all_names:
        key = candidate.strip().lower()
        if key in _LOOKUP:
            raise RegistryError(
                f"router name {candidate!r} already registered "
                f"(canonical: {_LOOKUP[key]!r})"
            )
    _SPECS[spec.name] = spec
    for candidate in spec.all_names:
        _LOOKUP[candidate.strip().lower()] = spec.name


def unregister_router(name: str) -> None:
    """Remove a registration (primarily for tests)."""
    spec = resolve_router(name)
    del _SPECS[spec.name]
    for candidate in spec.all_names:
        _LOOKUP.pop(candidate.strip().lower(), None)


def resolve_router(name: str) -> RouterSpec:
    """Resolve a canonical name or alias (case-insensitive) to its spec."""
    _load_builtins()
    key = str(name).strip().lower()
    canonical = _LOOKUP.get(key)
    if canonical is None:
        raise UnknownRouterError(
            f"unknown router {name!r}; available: {', '.join(router_names())}"
        )
    return _SPECS[canonical]


def router_names(kind: str | None = None) -> list[str]:
    """Canonical router names in registration order (aliases deduplicated)."""
    _load_builtins()
    return [s.name for s in _SPECS.values() if kind is None or s.kind == kind]


def router_specs(kind: str | None = None) -> Iterator[RouterSpec]:
    """Iterate the registered specs in registration order."""
    _load_builtins()
    for spec in _SPECS.values():
        if kind is None or spec.kind == kind:
            yield spec


def make_router(name: str, coupling, seed: int = 0, config: Any = None):
    """Resolve ``name`` and instantiate the router (see :meth:`RouterSpec.make`)."""
    return resolve_router(name).make(coupling, seed=seed, config=config)
