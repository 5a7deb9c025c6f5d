"""Backend registry: route queries to an execution engine by name."""

from __future__ import annotations

from repro.errors import EngineError
from repro.engine.base import Backend

_FACTORIES: dict = {}


def register_backend(name: str, factory) -> None:
    """Register a backend factory (a zero-argument callable)."""
    _FACTORIES[name.lower()] = factory


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name."""
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    return factory()


def available_backends() -> tuple:
    """Sorted names of all registered backends."""
    return tuple(sorted(_FACTORIES))


def _register_builtins() -> None:
    from repro.engine.auto import AutoBackend
    from repro.engine.columnar import ColumnarBackend
    from repro.engine.naive import NaiveBackend
    from repro.engine.parallel import ParallelBackend
    from repro.engine.sharded import ShardedBackend

    for backend in (
        NaiveBackend, ColumnarBackend, ParallelBackend, ShardedBackend,
        AutoBackend,
    ):
        register_backend(backend.name, backend)


_register_builtins()
