"""Architecture-agnostic kernel and operation substrate.

Everything the paper's characterization rests on — kernel records with exact
FLOP/byte accounting, GEMM shapes (Table 2b), elementwise/reduction kernel
constructors, and arithmetic-intensity analysis (Figs. 6/7).
"""

from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region)
from repro.ops.elementwise import (dropout_backward, dropout_forward,
                                   elementwise, gelu_kernels, residual_add)
from repro.ops.fused_attention import (fused_attention_backward_kernel,
                                       fused_attention_forward_kernel,
                                       fused_attention_kernels)
from repro.ops.gemm import (GemmShape, attention_output_gemms,
                            attention_score_gemms, linear_layer_gemms)
from repro.ops.intensity import (Boundedness, IntensityRecord,
                                 bandwidth_demand, group_intensity,
                                 kernel_intensity)
from repro.ops.reduction import layernorm_kernels, reduction, softmax_kernels
from repro.ops.windowed_attention import (WindowConfig,
                                          windowed_attention_op_kernels,
                                          windowed_context_gemm,
                                          windowed_score_gemm)

__all__ = [
    "AccessPattern", "Boundedness", "Component", "DType", "GemmShape",
    "IntensityRecord", "Kernel", "OpClass", "Phase", "Region",
    "WindowConfig", "attention_output_gemms", "attention_score_gemms",
    "bandwidth_demand", "dropout_backward", "dropout_forward", "elementwise",
    "fused_attention_backward_kernel", "fused_attention_forward_kernel",
    "fused_attention_kernels", "gelu_kernels", "group_intensity",
    "kernel_intensity", "layernorm_kernels", "linear_layer_gemms",
    "reduction", "residual_add", "softmax_kernels",
    "windowed_attention_op_kernels", "windowed_context_gemm",
    "windowed_score_gemm",
]
