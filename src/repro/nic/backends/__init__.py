"""Pluggable matching backends for the NIC firmware.

The firmware's progress loop is engine-agnostic: all queue searching and
indexing goes through one :class:`MatchBackend` resolved by name from
the registry.  Shipped engines:

* ``"list"`` -- linear traversal (:class:`ListSearchBackend`), the
  baseline every surveyed MPI uses;
* ``"hash"`` -- the Section II hash-table alternative
  (:class:`HashTableBackend`), software-only;
* ``"alpu"`` -- the paper's ALPU with software-suffix fallback
  (:class:`AlpuMatchBackend`); registered with ``needs_alpu=True`` so
  the NIC assembly builds the devices and drivers.

Adding an engine is one registration::

    from repro.nic.backends import MatchBackend, register_backend

    class MyBackend(MatchBackend):
        name = "mine"
        def match_arrival(self, request): ...
        def consume_unexpected(self, request): ...

    register_backend("mine", MyBackend)
    NicConfig(firmware=FirmwareConfig(matching="mine"))  # just works

``FirmwareConfig.matching`` accepts any registered name: the stock
``"list"``, ``"hash"`` and ``"alpu"`` engines are registered here.
"""

from repro.nic.backends.alpumatch import AlpuMatchBackend
from repro.nic.backends.base import MatchBackend
from repro.nic.backends.hashtable import HashTableBackend
from repro.nic.backends.listsearch import ListSearchBackend
from repro.nic.backends.registry import (
    BackendSpec,
    Registry,
    backend_spec,
    create_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)

register_backend("list", ListSearchBackend)
register_backend("hash", HashTableBackend)
register_backend("alpu", AlpuMatchBackend, needs_alpu=True)

__all__ = [
    "AlpuMatchBackend",
    "BackendSpec",
    "HashTableBackend",
    "ListSearchBackend",
    "MatchBackend",
    "Registry",
    "backend_spec",
    "create_backend",
    "register_backend",
    "registered_backends",
    "unregister_backend",
]
