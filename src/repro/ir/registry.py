"""The engine registry — one authoritative name -> class mapping.

Engines self-register with the :func:`register_engine` decorator; the
registry lazily imports the engine modules on first lookup so that
``repro.ir`` itself stays import-light and cycle-free.  Everything that
needs "all engines" (the selector's ``build_engine``, the planner, the
CLI ``--engine`` flags, the report's registry check, the batch-parity
tests) goes through :func:`get_engine` /
:func:`engine_names` instead of hardcoding classes.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import TypeVar

from repro.errors import ValidationError

_REGISTRY: dict[str, type] = {}

_PROTOCOL_ATTRS = (
    "plan",
    "lower",
    "apply",
    "apply_batch",
    "simulate",
    "predict",
)

# Canonical load order; it fixes the order of engine_names().
_ENGINE_MODULES = (
    "repro.core.scheduled",
    "repro.core.padded",
    "repro.core.conventional",
    "repro.core.dmm_permutation",
    "repro.cpu.blocked",
    "repro.cpu.inplace",
    "repro.cpu.naive",
)

_loaded = False

T = TypeVar("T", bound=type)


def register_engine(name: str) -> Callable[[T], T]:
    """Class decorator registering an engine under ``name``.

    Validates the full Engine protocol surface up front so a partially
    implemented engine fails at import time, not at first use.  Sets
    ``cls.engine_name = name``.
    """

    def decorate(cls: T) -> T:
        missing = [a for a in _PROTOCOL_ATTRS if not hasattr(cls, a)]
        if missing:
            raise ValidationError(
                f"cannot register engine {name!r}: {cls.__name__} is "
                f"missing {', '.join(missing)}"
            )
        previous = _REGISTRY.get(name)
        if previous is not None and previous is not cls:
            raise ValidationError(
                f"engine name {name!r} is already registered to "
                f"{previous.__name__}"
            )
        setattr(cls, "engine_name", name)
        _REGISTRY[name] = cls
        return cls

    return decorate


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    _loaded = True
    for module in _ENGINE_MODULES:
        importlib.import_module(module)


def engine_names() -> tuple[str, ...]:
    """All registered engine names, in canonical registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def get_engine(name: str) -> type:
    """Look up an engine class by registry name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown engine {name!r}; expected one of {tuple(_REGISTRY)}"
        ) from None
