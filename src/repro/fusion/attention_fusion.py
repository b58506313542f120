"""Trace transform: replace eager attention ops with fused kernels.

Swaps each encoder layer's attention-operation kernels — the batched
GEMMs plus the scale/mask/softmax/dropout stream — for the two fused
kernels of :mod:`repro.ops.fused_attention`, preserving launch order and
layer attribution.  Linear projections and everything else are untouched.

:class:`FusedAttentionPass` is the columnar implementation: the first
attention-op row of each (layer, phase) becomes a marker that is
batch-rewritten in place from the fused-kernel template, and the remaining
attention-op rows are dropped with one boolean-mask select.  The original
per-kernel scan survives as
:func:`repro.trace.reference.reference_fused_attention`.
"""

from __future__ import annotations

import numpy as np

from repro.ops.base import Kernel, Phase, Region
from repro.ops.fused_attention import (fused_attention_backward_kernel,
                                       fused_attention_forward_kernel)
from repro.trace.kernel_table import (PHASES, KernelTable, code_of)
from repro.trace.passes import PassContext, TracePass


def _attention_markers(table: KernelTable
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """(keep mask, marker positions in the kept table), or None.

    A marker is the first attention-op row of each (layer, phase) block;
    every other attention-op row is dropped by ``keep``.
    """
    attention = (table.layer >= 0) & table.mask(
        region=(Region.ATTENTION_BGEMM, Region.ATTENTION_SMDSM))
    rows = np.flatnonzero(attention)
    if not len(rows):
        return None
    keys = (table.layer[rows].astype(np.int64) * len(PHASES)
            + table.phase[rows])
    _, first = np.unique(keys, return_index=True)
    marker_rows = rows[np.sort(first)]
    keep = ~attention
    keep[marker_rows] = True
    marker_positions = np.cumsum(keep)[marker_rows] - 1
    return keep, marker_positions


class FusedAttentionPass(TracePass):
    """Rewrite a trace with kernel-fused attention per layer/direction.

    The first eager attention-op kernel of each (layer, phase) block is
    replaced by the fused kernel; the rest of the block is dropped.
    """

    name = "fused_attention"

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        from repro.trace.bert_trace import _activation_dtype

        markers = _attention_markers(table)
        if markers is None:
            return table
        keep, positions = markers
        out = table.select(keep)

        model, training = ctx.model, ctx.training
        dtype = _activation_dtype(training)
        templates = {
            phase: builder(seq_len=training.seq_len, d_head=model.d_head,
                           batch_heads=training.batch_size * model.num_heads,
                           dtype=dtype)
            for phase, builder in ((Phase.FORWARD,
                                    fused_attention_forward_kernel),
                                   (Phase.BACKWARD,
                                    fused_attention_backward_kernel))}
        fwd, bwd = templates[Phase.FORWARD], templates[Phase.BACKWARD]

        names = list(out.names)
        name_codes = {}
        for kernel in (fwd, bwd):
            if kernel.name not in names:
                names.append(kernel.name)
            name_codes[kernel.name] = names.index(kernel.name)
        gemms = list(out.gemms)
        if fwd.gemm not in gemms:  # fwd and bwd share the score anchor
            gemms.append(fwd.gemm)
        gemm_code = gemms.index(fwd.gemm)

        # Markers keep their phase/component/layer; everything else comes
        # from the matching template, chosen per marker by phase.
        is_fwd = out.phase[positions] == code_of(Phase.FORWARD)

        def pick(field):
            return np.where(is_fwd, getattr(fwd, field), getattr(bwd, field))

        return out.rewrite_rows(
            positions, provenance=self.name,
            name_code=np.where(is_fwd, name_codes[fwd.name],
                               name_codes[bwd.name]),
            names=tuple(names),
            op_class=np.int8(code_of(fwd.op_class)),
            region=np.int8(code_of(fwd.region)),
            dtype=np.int8(code_of(dtype)),
            access=np.int8(code_of(fwd.access)),
            flops=pick("flops"),
            bytes_read=pick("bytes_read"),
            bytes_written=pick("bytes_written"),
            n_elements=pick("n_elements"),
            gemm_code=np.int32(gemm_code), gemms=tuple(gemms),
            fusion_code=np.int32(-1))


def _is_attention_op(kernel: Kernel) -> bool:
    return (kernel.layer_index is not None
            and kernel.region in (Region.ATTENTION_BGEMM,
                                  Region.ATTENTION_SMDSM))
