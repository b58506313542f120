"""NumPy reverse-mode autograd tensor library (the executable substrate)."""

from repro.tensor import functional, recording
from repro.tensor.module import (Dropout, Embedding, LayerNorm, Linear,
                                 Module, Parameter)
from repro.tensor.tensor import Tensor, no_grad, ones, tensor, zeros

__all__ = [
    "Dropout", "Embedding", "LayerNorm", "Linear", "Module", "Parameter",
    "Tensor", "functional", "no_grad", "ones", "recording", "tensor",
    "zeros",
]
