"""Network models: packets, routed topologies, and a contended fabric.

Table III specifies a 200 ns network wire latency; the paper's simulation
adds "components representing a simple network".  We model a routed
fabric over a declarative :class:`Topology` (``crossbar`` / ``ring`` /
``mesh2d`` / ``torus3d``): each NIC has an injection port, packets walk
deterministic minimal routes over shared store-and-forward channels, and
arrivals stay in order per (source, destination) pair -- the ordering
MPI's matching semantics rely on.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "packet": ("Packet", "PacketKind", "HEADER_BYTES"),
        "fabric": ("Fabric", "FabricConfig"),
        "topology": ("Topology", "TopologyConfig", "TOPOLOGY_PRESETS", "balanced_dims"),
    },
)
