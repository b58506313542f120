"""Energy modeling for kernels and traces.

The paper motivates near-memory compute partly on energy: "NMC avoids data
movement between the main memory and GPU ... and improves performance and
energy efficiency" (Sec. 6.2.1).  This model prices each kernel from
first-order technology constants — energy per arithmetic op (by precision)
and per byte moved across each interface — so traces, fusion decisions and
NMC offload can be compared in joules as well as seconds.

Constants follow the widely-used 7nm-class estimates (Horowitz-style
scaling): DRAM access energy dominated by the interface, on-package HBM
around ~4 pJ/bit, FP32 FMA a few pJ, halved for FP16; bank-internal NMC
access skips the PHY/IO and controller, cutting per-byte energy several
fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ops.base import DType, Kernel
from repro.trace.kernel_table import DTYPES, KernelTable


@dataclass(frozen=True)
class EnergySpec:
    """Per-operation energy constants, in picojoules.

    Attributes:
        flop_pj: energy per arithmetic operation, by dtype.
        dram_pj_per_byte: HBM access energy per byte (PHY + DRAM core).
        nmc_internal_pj_per_byte: bank-local access energy per byte (no
            off-chip interface).
        static_watts: device static/background power, charged per second.
    """

    flop_pj: dict[DType, float] = field(default_factory=lambda: {
        DType.FP32: 1.8,
        DType.FP16: 0.9,
        DType.BF16: 0.9,
    })
    dram_pj_per_byte: float = 32.0
    nmc_internal_pj_per_byte: float = 8.0
    static_watts: float = 80.0

    def flop_energy(self, dtype: DType) -> float:
        """pJ per FLOP for ``dtype`` (FP32 fallback)."""
        return self.flop_pj.get(dtype, self.flop_pj[DType.FP32])


def default_energy_spec() -> EnergySpec:
    """The frozen constants used by all energy experiments."""
    return EnergySpec()


def kernel_energy(kernel: Kernel, spec: EnergySpec,
                  *, nmc: bool = False) -> float:
    """Dynamic energy of one kernel, in joules.

    Args:
        kernel: the kernel record.
        spec: energy constants.
        nmc: price memory traffic at the bank-internal rate (the kernel
            runs on near-memory ALUs instead of the GPU).
    """
    per_byte = (spec.nmc_internal_pj_per_byte if nmc
                else spec.dram_pj_per_byte)
    arithmetic = kernel.flops * spec.flop_energy(kernel.dtype)
    movement = kernel.bytes_total * per_byte
    return (arithmetic + movement) * 1e-12


def _energy_columns(table: KernelTable, spec: EnergySpec, *,
                    nmc: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (arithmetic, movement) energy of a table, in picojoules.

    Row for row the same products as :func:`kernel_energy`.
    """
    per_flop = np.array([spec.flop_energy(d) for d in DTYPES])
    per_byte = (spec.nmc_internal_pj_per_byte if nmc
                else spec.dram_pj_per_byte)
    return table.flops * per_flop[table.dtype], table.bytes_total * per_byte


def trace_energy(kernels, spec: EnergySpec | None = None, *,
                 nmc: bool = False) -> float:
    """Total dynamic energy of a kernel sequence, in joules.

    Accepts a :class:`~repro.trace.builder.Trace`, a
    :class:`KernelTable`, or any kernel iterable.
    """
    spec = spec or default_energy_spec()
    arithmetic, movement = _energy_columns(KernelTable.coerce(kernels), spec,
                                           nmc=nmc)
    return float(((arithmetic + movement) * 1e-12).sum())


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting of one iteration.

    Attributes:
        dynamic_j: switching energy of all kernels.
        static_j: leakage/background energy over the iteration time.
        movement_fraction: share of dynamic energy spent moving data —
            the figure of merit the data-movement literature optimizes.
    """

    dynamic_j: float
    static_j: float
    movement_fraction: float

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.static_j


def iteration_energy(profile, spec: EnergySpec | None = None) -> EnergyReport:
    """Energy report of a profiled iteration.

    Args:
        profile: a :class:`repro.profiler.profiler.Profile`.
        spec: energy constants.
    """
    spec = spec or default_energy_spec()
    arithmetic, movement = _energy_columns(profile.table, spec)
    arithmetic = float((arithmetic * 1e-12).sum())
    movement = float((movement * 1e-12).sum())
    dynamic = arithmetic + movement
    static = spec.static_watts * profile.total_time
    return EnergyReport(dynamic_j=dynamic, static_j=static,
                        movement_fraction=movement / dynamic if dynamic else 0.0)
