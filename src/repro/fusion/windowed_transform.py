"""Trace transform: swap dense attention ops for block-local attention.

The counterpart of :mod:`repro.fusion.attention_fusion` for the windowed
(linear-complexity) attention variant: each encoder layer's dense
attention-operation kernels are replaced by the block-local kernel stream
of :mod:`repro.ops.windowed_attention`, so the full profiling/energy/export
pipeline can study windowed models end to end.

:class:`WindowedAttentionPass` is the columnar implementation: the first
dense attention-op row of each (layer, phase) becomes a splice marker, the
rest are dropped with one boolean-mask select, and the per-phase windowed
kernel block — built once as a :class:`KernelTable` and stamped with
each marker's layer — replaces each marker via :meth:`~repro.trace.kernel_table.KernelTable.splice` with
``replace=True``.  The original per-kernel scan survives as
:func:`repro.trace.reference.reference_windowed_attention`.
"""

from __future__ import annotations

import numpy as np

from repro.ops.base import Phase
from repro.ops.windowed_attention import (WindowConfig,
                                          windowed_attention_op_kernels)
from repro.trace.kernel_table import KernelTable, code_of
from repro.trace.passes import PassContext, TracePass


class WindowedAttentionPass(TracePass):
    """Rewrite a trace with block-local attention per encoder layer.

    The windowed kernel block (forward and backward interleaved as
    emitted) replaces the first dense attention-op kernel of each
    (layer, phase); remaining dense attention-op kernels are dropped.
    """

    name = "windowed_attention"

    def __init__(self, window: WindowConfig | None = None):
        self.window = window or WindowConfig()

    def params(self) -> dict:
        return {"block": self.window.block,
                "window_blocks": self.window.window_blocks}

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        from repro.fusion.attention_fusion import _attention_markers
        from repro.trace.bert_trace import _activation_dtype

        markers = _attention_markers(table)
        if markers is None:
            return table
        keep, positions = markers
        out = table.select(keep)

        model, training = ctx.model, ctx.training
        block = windowed_attention_op_kernels(
            seq_len=training.seq_len, d_head=model.d_head,
            batch_heads=training.batch_size * model.num_heads,
            window=self.window, dtype=_activation_dtype(training),
            layer_index=None)
        templates = {
            phase: KernelTable.from_kernels(
                [k for k in block if k.phase is phase]).stamped(self.name)
            for phase in (Phase.FORWARD, Phase.BACKWARD)}

        forward_code = code_of(Phase.FORWARD)
        segments = []
        for position in positions:
            phase = (Phase.FORWARD if out.phase[position] == forward_code
                     else Phase.BACKWARD)
            segment = templates[phase]
            segments.append(segment.with_columns(
                layer=np.full(len(segment), out.layer[position])))
        return out.splice(positions, segments, replace=True)
