"""Named-factory registries for pluggable engines.

:class:`Registry` is a tiny generic name -> value store with uniform
error reporting; the module-level functions wrap one instance of it as
*the* matching-backend registry used by
:class:`~repro.nic.firmware.FirmwareConfig` and
:class:`~repro.nic.nic.Nic`.  The queue disciplines in
:mod:`repro.nic.qdisc` reuse :class:`Registry` with their own instance.

Registering a backend makes its name a valid ``FirmwareConfig.matching``
value; ``needs_alpu=True`` additionally tells the NIC assembly to build
the two ALPU devices and their drivers before the firmware starts.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Generic, Tuple, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """A name -> value registry with helpful unknown-name errors."""

    def __init__(self, kind: str) -> None:
        #: human label used in error messages ("matching engine", ...)
        self.kind = kind
        self._values: Dict[str, T] = {}

    def register(self, name: str, value: T, *, replace: bool = False) -> None:
        """Bind ``name``; refuses silent overwrites unless ``replace``."""
        if not replace and name in self._values:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._values[name] = value

    def unregister(self, name: str) -> None:
        """Drop a binding (tests registering throwaway backends)."""
        self._values.pop(name, None)

    def get(self, name: str) -> T:
        try:
            return self._values[name]
        except KeyError:
            known = ", ".join(sorted(self._values)) or "<none>"
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: {known}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names, insertion-ordered."""
        return tuple(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._values


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """How to build one matching backend, plus its hardware needs."""

    name: str
    factory: Callable[[], "object"]
    #: the NIC must assemble ALPU devices + drivers for this backend
    needs_alpu: bool = False


#: the match-backend registry (``FirmwareConfig.matching`` values)
BACKENDS: Registry[BackendSpec] = Registry("matching engine")


def register_backend(
    name: str,
    factory: Callable[[], "object"],
    *,
    needs_alpu: bool = False,
    replace: bool = False,
) -> None:
    """Make ``name`` a valid ``FirmwareConfig.matching`` value.

    ``factory`` is called once per NIC firmware instance and must return
    a fresh :class:`~repro.nic.backends.base.MatchBackend`.
    """
    BACKENDS.register(
        name, BackendSpec(name=name, factory=factory, needs_alpu=needs_alpu),
        replace=replace,
    )


def unregister_backend(name: str) -> None:
    """Remove a backend registration (primarily for tests)."""
    BACKENDS.unregister(name)


def backend_spec(name: str) -> BackendSpec:
    """Resolve a backend name; raises ``ValueError`` when unknown."""
    return BACKENDS.get(name)


def create_backend(name: str):
    """Instantiate a fresh backend for one firmware."""
    return backend_spec(name).factory()


def registered_backends() -> Tuple[str, ...]:
    """All registered backend names."""
    return BACKENDS.names()
