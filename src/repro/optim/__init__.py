"""Optimizers: executable NumPy implementations and kernel-trace emission."""

from repro.optim.adam import Adam, Sgd
from repro.optim.base import Optimizer
from repro.optim.kernels import MULTI_TENSOR_BATCH, optimizer_kernels
from repro.optim.lamb import Lamb

__all__ = [
    "Adam", "Lamb", "MULTI_TENSOR_BATCH", "Optimizer", "Sgd",
    "optimizer_kernels",
]
