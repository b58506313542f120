"""Reduction-style kernels: softmax, LayerNorm, norms and loss reductions.

These operations reduce along rows/columns and then apply a few elementwise
steps; the paper classifies them as memory-bound with arithmetic intensity
barely above one (Sec. 3.2.3, Fig. 7).
"""

from __future__ import annotations

from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region, lanes_any, lanes_round)


def reduction(name: str, *, n_elements: int, dtype: DType, phase: Phase,
              component: Component, region: Region,
              inputs: int = 1, outputs: int = 1,
              flops_per_element: float = 2.0,
              reduced_elements: int = 1,
              layer_index: int | None = None,
              fusion_group: str | None = None) -> Kernel:
    """Build a reduction kernel.

    Args:
        n_elements: elements of the tensor being reduced over.
        reduced_elements: elements of the (small) reduction output.
        inputs/outputs: tensors of ``n_elements`` streamed in/out
            (``outputs=0`` for pure reductions that only emit statistics).
        flops_per_element: arithmetic per input element (a sum costs ~1, a
            mean+variance pass ~3, softmax's exp ~8).

    Returns:
        A :class:`Kernel` with ``op_class = REDUCTION`` and strided access.
    """
    if lanes_any(n_elements <= 0):
        raise ValueError("n_elements must be positive")
    eb = dtype.bytes
    return Kernel(
        name=name,
        op_class=OpClass.REDUCTION,
        phase=phase,
        component=component,
        region=region,
        flops=lanes_round(flops_per_element * n_elements),
        bytes_read=inputs * n_elements * eb,
        bytes_written=outputs * n_elements * eb + reduced_elements * eb,
        dtype=dtype,
        access=AccessPattern.STRIDED,
        layer_index=layer_index,
        fusion_group=fusion_group,
        n_elements=n_elements,
    )


def softmax_kernels(*, rows: int, row_len: int, dtype: DType, phase: Phase,
                    region: Region = Region.ATTENTION_SMDSM,
                    component: Component = Component.TRANSFORMER,
                    layer_index: int | None = None,
                    name_prefix: str = "softmax",
                    fusion_group: str | None = None) -> list[Kernel]:
    """Softmax over ``rows`` rows of length ``row_len``.

    As in the frameworks the paper profiles, the numerically-stable
    softmax launches as one kernel per direction: forward keeps a row in
    registers/LDS across the max/exp-sum/normalize passes (one read, one
    write of the tensor); backward reads the saved output and the incoming
    gradient, reduces the per-row dot product internally, and writes the
    input gradient.
    """
    n = rows * row_len
    if phase is Phase.FORWARD:
        return [
            reduction(f"{name_prefix}.fwd", n_elements=n, dtype=dtype,
                      phase=phase, component=component,
                      region=region, inputs=1, outputs=1,
                      flops_per_element=12.0, reduced_elements=2 * rows,
                      layer_index=layer_index, fusion_group=fusion_group),
        ]
    return [
        reduction(f"{name_prefix}.bwd", n_elements=n, dtype=dtype,
                  phase=phase, component=component, region=region,
                  inputs=2, outputs=1, flops_per_element=5.0,
                  reduced_elements=rows, layer_index=layer_index,
                  fusion_group=fusion_group),
    ]


#: Eager (unfused) LayerNorm forward decomposition used by Fig. 12's fusion
#: study — every arithmetic step of the textbook formula as its own kernel,
#: each materializing its result to device memory.
LAYERNORM_UNFUSED_FORWARD_STEPS = ("mean", "center", "square", "variance",
                                   "add_eps", "rsqrt", "normalize", "gain",
                                   "bias")

#: Additional backward-only steps of the eager decomposition.
LAYERNORM_UNFUSED_BACKWARD_EXTRA = ("grad_gain", "grad_center",
                                    "grad_combine", "grad_params")


def layernorm_kernels(*, rows: int, row_len: int, dtype: DType, phase: Phase,
                      fused: bool = True,
                      component: Component = Component.TRANSFORMER,
                      region: Region = Region.DR_RC_LN,
                      layer_index: int | None = None,
                      name_prefix: str = "layernorm",
                      fusion_group: str | None = None) -> list[Kernel]:
    """LayerNorm kernels over ``rows x row_len``.

    ``fused=True`` is the framework's optimized implementation: one forward
    kernel and two backward kernels (input gradient; gain/bias gradient).
    ``fused=False`` is the eager decomposition of
    :data:`LAYERNORM_UNFUSED_FORWARD_STEPS`, each step a separate kernel —
    the 6-8x kernel-count gap the paper measures in Fig. 12(a).
    """
    n = rows * row_len
    if fused:
        if phase is Phase.FORWARD:
            return [reduction(
                f"{name_prefix}.fwd", n_elements=n, dtype=dtype, phase=phase,
                component=component, region=region, inputs=1, outputs=1,
                flops_per_element=6.0, reduced_elements=2 * rows,
                layer_index=layer_index, fusion_group=fusion_group)]
        return [
            reduction(f"{name_prefix}.bwd.input", n_elements=n, dtype=dtype,
                      phase=phase, component=component, region=region,
                      inputs=2, outputs=1, flops_per_element=8.0,
                      reduced_elements=2 * rows, layer_index=layer_index,
                      fusion_group=fusion_group),
            reduction(f"{name_prefix}.bwd.params", n_elements=n, dtype=dtype,
                      phase=phase, component=component, region=region,
                      inputs=2, outputs=0, flops_per_element=2.0,
                      reduced_elements=2 * row_len, layer_index=layer_index,
                      fusion_group=fusion_group),
        ]

    kernels = []
    steps = (LAYERNORM_UNFUSED_FORWARD_STEPS if phase is Phase.FORWARD
             else LAYERNORM_UNFUSED_FORWARD_STEPS
             + LAYERNORM_UNFUSED_BACKWARD_EXTRA)
    two_input_steps = ("center", "normalize", "gain", "bias", "grad_gain",
                       "grad_center", "grad_combine")
    for step in steps:
        is_reduce = step in ("mean", "variance", "grad_params")
        kernels.append(reduction(
            f"{name_prefix}.{phase.value}.{step}", n_elements=n, dtype=dtype,
            phase=phase, component=component, region=region,
            inputs=2 if step in two_input_steps else 1,
            outputs=0 if is_reduce else 1,
            flops_per_element=2.0,
            reduced_elements=rows if is_reduce else 1,
            layer_index=layer_index, fusion_group=fusion_group))
    return kernels
