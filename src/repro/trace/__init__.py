"""Kernel-trace generation for one BERT training iteration."""

from repro.trace.bert_trace import (attention_backward_kernels,
                                    attention_forward_kernels,
                                    build_iteration_trace,
                                    embedding_backward_kernels,
                                    embedding_forward_kernels,
                                    feedforward_backward_kernels,
                                    feedforward_forward_kernels,
                                    iteration_trace,
                                    output_head_backward_kernels,
                                    output_head_forward_kernels,
                                    transformer_gemm_shapes,
                                    transformer_layer_backward_kernels,
                                    transformer_layer_forward_kernels)
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable
from repro.trace.passes import (PassContext, PassManager, TracePass,
                                available_passes, build_pipeline)
from repro.trace.validate import ValidationReport, validate_trace
from repro.trace.variants import (build_finetuning_trace,
                                  build_inference_trace)
from repro.trace.parameters import (ParamTensor, bert_parameter_inventory,
                                    embedding_tensors, encoder_layer_tensors,
                                    group_by_layer, output_head_tensors,
                                    total_parameters)

__all__ = [
    "KernelTable", "ParamTensor", "PassContext", "PassManager", "Trace",
    "TracePass", "ValidationReport",
    "available_passes", "build_pipeline",
    "build_finetuning_trace", "build_inference_trace", "validate_trace",
    "attention_backward_kernels", "attention_forward_kernels",
    "bert_parameter_inventory", "build_iteration_trace",
    "embedding_backward_kernels", "embedding_forward_kernels",
    "embedding_tensors", "encoder_layer_tensors",
    "feedforward_backward_kernels", "feedforward_forward_kernels",
    "group_by_layer", "iteration_trace", "output_head_backward_kernels",
    "output_head_forward_kernels", "output_head_tensors",
    "total_parameters", "transformer_gemm_shapes",
    "transformer_layer_backward_kernels",
    "transformer_layer_forward_kernels",
]
