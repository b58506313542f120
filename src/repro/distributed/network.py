"""Inter-device link models.

The paper's multi-device analysis assumes a homogeneous topology and PCIe
4.0-class bandwidth (Sec. 5.1), estimating communication time as data
volume over link bandwidth.  Latency per transfer step is included so
small-message collectives are not free.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point inter-device link.

    Attributes:
        name: link label.
        bandwidth_gbps: sustained unidirectional bandwidth in GB/s.
        latency_us: per-message latency in microseconds.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float = 5.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_us < 0:
            raise ValueError("latency must be non-negative")

    @property
    def bandwidth(self) -> float:
        """Bytes per second."""
        return self.bandwidth_gbps * 1e9

    @property
    def latency_s(self) -> float:
        return self.latency_us * 1e-6

    def transfer_time(self, n_bytes: int) -> float:
        """Time to move ``n_bytes`` point to point."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return self.latency_s + n_bytes / self.bandwidth


#: PCIe 4.0 x16: 32 GB/s raw, ~26 GB/s sustained after protocol overhead —
#: the interconnect the paper assumes for gradient communication.
PCIE4 = LinkSpec(name="pcie4-x16", bandwidth_gbps=26.0, latency_us=5.0)

#: An xGMI/Infinity-Fabric-class intra-node link, for what-if studies.
XGMI = LinkSpec(name="xgmi", bandwidth_gbps=75.0, latency_us=2.0)
