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
``"list"``, ``"hash"`` and ``"alpu"`` engines are registered here.  A
factory may also be registered as a ``"module:attribute"`` path, which
the first :func:`backend_spec` lookup imports; the hash and ALPU engines
are, so a run imports only the engine its NICs use.
"""

from repro._lazy import attach
from repro.nic.backends.listsearch import ListSearchBackend
from repro.nic.backends.registry import register_backend

# the baseline engine is the degrade target of every firmware, so it is
# registered as a class; the others resolve on their first lookup
register_backend("list", ListSearchBackend)
register_backend("hash", "repro.nic.backends.hashtable:HashTableBackend")
register_backend(
    "alpu", "repro.nic.backends.alpumatch:AlpuMatchBackend", needs_alpu=True
)

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "alpumatch": ("AlpuMatchBackend",),
        "base": ("MatchBackend",),
        "hashtable": ("HashTableBackend",),
        "listsearch": ("ListSearchBackend",),
        "registry": (
            "BackendSpec",
            "Registry",
            "backend_spec",
            "create_backend",
            "register_backend",
            "registered_backends",
            "unregister_backend",
        ),
    },
)
