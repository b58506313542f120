"""Optimizer kernel emission: LAMB, Adam and SGD update phases.

The paper identifies the optimizer update as the second-highest contributor
to BERT's training time (Takeaway 1) and studies its fusion behavior
(Fig. 12).  This module emits the rows of the update phase in both forms:

* **fused** — the production form the paper profiles: LAMB fused per layer
  group into ``LAMBStage1``/``LAMBStage2`` kernels (Apex style, Sec. 3.2.3),
  Adam fused via multi-tensor-apply batches;
* **unfused** — one kernel per elementwise step per parameter tensor, the
  eager form Fig. 12 compares against.

Emission is columnar: each step is a row template (name, region, bytes
per element, FLOPs per element) repeated over the inventory's size vector
with ``np.repeat``/``np.tile``, or over its per-group and per-batch sums
for the fused stages, straight into a
:class:`~repro.trace.kernel_table.KernelTable`.  No :class:`Kernel`
object is built.

Byte accounting is exact per the algorithms: LAMB stage 1 reads the
gradient, momentum, velocity and parameter tensors (the "4x the model size"
of Takeaway 7) and writes momentum, velocity and the update; stage 2 reads
the update and parameter and writes the parameter.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.config import Precision
from repro.ops.base import (AccessPattern, Component, DType, OpClass, Phase,
                            Region)
from repro.trace.kernel_table import KernelTable, code_of
from repro.trace.parameters import ParamTensor, group_by_layer

#: Tensors per multi-tensor-apply launch for fused Adam.  Apex batches
#: tensor lists into fixed-capacity kernel-argument blocks; with BERT
#: Large's ~400 parameter tensors this yields a few dozen launches, i.e. the
#: ~250x kernel-count gap vs. the unfused form that Fig. 12(a) reports.
MULTI_TENSOR_BATCH = 16

#: Optimizer state and updates are FP32 (Sec. 2.4).
_FP32 = DType.FP32.bytes


class _Step(NamedTuple):
    """One row template; a row's name is ``head + unit + tail``."""

    head: str
    tail: str
    region: Region
    read: int  # bytes read per element
    write: int  # bytes written per element
    flops: float  # per element
    op_class: OpClass = OpClass.ELEMENTWISE
    access: AccessPattern = AccessPattern.MULTI_TENSOR
    extra_write: int = 0  # bytes written per row
    principal: bool = True  # the row's n_elements is its unit's size


class _Template:
    """Step templates repeated unit-major over a vector of unit sizes.

    ``truncate`` selects the FLOP rounding: fused stage kernels truncate
    ``int(flops * n)``, elementwise and reduction steps round half to even
    (:func:`repro.ops.base.lanes_round`).
    """

    def __init__(self, steps: Sequence[_Step], *, truncate: bool = False):
        self.affixes = tuple((step.head, step.tail) for step in steps)
        self.truncate = truncate
        self.codes = {key: np.array([code_of(getattr(s, key)) for s in steps],
                                    np.int8)
                      for key in ("region", "op_class", "access")}
        self.per_element = np.array(
            [(s.read, s.write, s.principal) for s in steps], np.int64).T
        self.flops = np.array([s.flops for s in steps], np.float64)
        self.extra_write = np.array([s.extra_write for s in steps], np.int64)

    def rows(self, units: Sequence[str], sizes: np.ndarray) -> tuple:
        """``(names, columns)`` of every step for every unit."""
        names = [head + unit + tail for unit in units
                 for head, tail in self.affixes]
        n = np.repeat(sizes, len(self.affixes))
        columns = {key: np.tile(codes, len(units))
                   for key, codes in self.codes.items()}
        read, write, principal = np.tile(self.per_element, len(units)) * n
        flops = np.tile(self.flops, len(units)) * n
        flops = flops if self.truncate else np.rint(flops)
        return names, {
            **columns, "flops": flops.astype(np.int64), "bytes_read": read,
            "bytes_written": write + np.tile(self.extra_write, len(units)),
            "n_elements": principal}


def _unfused(head: str, region: Region, steps) -> list[_Step]:
    """Per-tensor elementwise steps ``(name, inputs, outputs, flops)``.

    Each step is its own kernel: intermediates are materialized to device
    memory between kernels — the duplicate traffic fusion removes.
    """
    return [_Step(f"{head}.", f".{name}", region, inputs * _FP32,
                  outputs * _FP32, flops)
            for name, inputs, outputs, flops in steps]


def _norm(head: str) -> _Step:
    """An L2-norm reduction: reads its tensor, writes one scalar."""
    return _Step(head, "", Region.OPT_NORM, _FP32, 0, 2.0,
                 op_class=OpClass.REDUCTION, access=AccessPattern.STRIDED,
                 extra_write=_FP32)


def _fused(head: str, region: Region, reads: int, writes: int,
           flops: float) -> _Step:
    """One fused stage kernel over a tensor group (arithmetic of all its
    steps executed in-register)."""
    return _Step(head, "", region, reads * _FP32, writes * _FP32, flops)


_LAMB_UNFUSED = _Template(
    _unfused("lamb.unfused.stage1", Region.OPT_STAGE1, (
        ("m_scale", 1, 1, 1.0), ("g_scale", 1, 1, 1.0), ("m_add", 2, 1, 1.0),
        ("g_square", 1, 1, 1.0), ("v_scale", 1, 1, 1.0),
        ("g2_scale", 1, 1, 1.0), ("v_add", 2, 1, 1.0), ("m_hat", 1, 1, 1.0),
        ("v_hat", 1, 1, 1.0), ("v_sqrt", 1, 1, 2.0), ("v_eps", 1, 1, 1.0),
        ("update_div", 2, 1, 4.0), ("decay_scale", 1, 1, 1.0),
        ("decay_add", 2, 1, 1.0)))
    # Per-tensor trust-ratio norms (||p|| and ||update||).
    + [_norm("lamb.unfused.norm_param."), _norm("lamb.unfused.norm_update.")]
    + _unfused("lamb.unfused.stage2", Region.OPT_STAGE2, (
        ("trust_scale", 1, 1, 1.0), ("p_sub", 2, 1, 1.0))))
_LAMB_FUSED = _Template([
    _fused("lamb.stage1.", Region.OPT_STAGE1, 4, 3, 19.0),
    _fused("lamb.stage2.", Region.OPT_STAGE2, 2, 1, 3.0)], truncate=True)
_LAMB_GLOBAL_NORM = _Template([_norm("lamb.global_grad_norm")])

#: Eager Adam decomposition: non-in-place elementwise steps, each writing a
#: fresh temporary (the pre-multi-tensor framework behavior Fig. 12(a)
#: compares against).  Bias correction materializes corrected moments, and
#: the combine steps read multiple operands.
_ADAM_UNFUSED = _Template(
    _unfused("adam.unfused", Region.OPT_STAGE1, (
        ("m_scale", 1, 1, 1.0), ("g_scale", 1, 1, 1.0), ("m_add", 2, 1, 1.0),
        ("g_square", 2, 1, 1.0), ("v_scale", 1, 1, 1.0),
        ("g2_scale", 1, 1, 1.0), ("v_add", 2, 1, 1.0), ("m_hat", 2, 1, 1.0),
        ("v_hat", 2, 1, 1.0), ("v_sqrt", 1, 1, 2.0),
        ("denom_div", 2, 1, 1.0), ("v_eps", 1, 1, 1.0),
        ("update_div", 2, 1, 4.0),
        ("m_copyback", 1, 1, 0.0), ("v_copyback", 1, 1, 0.0)))
    + _unfused("adam.unfused", Region.OPT_STAGE2, (
        ("lr_scale", 1, 1, 1.0), ("p_sub", 2, 1, 1.0))))
_ADAM_FUSED = _Template(
    [_fused("adam.fused.batch", Region.OPT_STAGE1, 4, 3, 19.0)],
    truncate=True)

_SGD_UNFUSED = _Template(_unfused("sgd.unfused", Region.OPT_STAGE1, (
    ("m_scale", 1, 1, 1.0), ("m_add", 2, 1, 1.0), ("lr_scale", 1, 1, 1.0),
    ("p_sub", 2, 1, 1.0))))
_SGD_FUSED = _Template(
    [_fused("sgd.fused", Region.OPT_STAGE1, 3, 2, 4.0)], truncate=True)

#: Mixed-precision glue around the FP32 optimizer: unscale+cast the FP16
#: gradients to FP32 before the update, and cast the updated FP32 master
#: weights back to the FP16 model copy afterwards.  LAMB itself is
#: unchanged, which is why its absolute runtime stays constant
#: (Takeaway 2).
_PRECISION_CASTS = _Template([
    _Step("optimizer.grad_unscale_cast", "", Region.OPT_STAGE1,
          DType.FP16.bytes, _FP32, 2.0, principal=False),
    _Step("optimizer.weight_cast_back", "", Region.OPT_STAGE2,
          _FP32, DType.FP16.bytes, 1.0, principal=False)])


def _lamb_rows(inventory, sizes, fused: bool) -> list[tuple]:
    """A global L2 norm over all gradients (serializing the update
    against the whole backprop, Sec. 2.4 / 3.2.3), then per layer group a
    stage-1 kernel (moments, update direction, trust-ratio norms) and a
    stage-2 kernel (scaled weight update), or the per-tensor steps."""
    rows = [_LAMB_GLOBAL_NORM.rows([""], sizes.sum(keepdims=True))]
    if not fused:
        return rows + [_LAMB_UNFUSED.rows([t.name for t in inventory],
                                          sizes)]
    groups = group_by_layer(inventory)
    group_sizes = np.array([sum(t.n_elements for t in tensors)
                            for tensors in groups.values()], dtype=np.int64)
    return rows + [_LAMB_FUSED.rows(list(groups), group_sizes)]


def _adam_rows(inventory, sizes, fused: bool) -> list[tuple]:
    """Multi-tensor-apply batches of :data:`MULTI_TENSOR_BATCH` tensors,
    or one kernel per elementwise step per tensor."""
    if not fused:
        return [_ADAM_UNFUSED.rows([t.name for t in inventory], sizes)]
    starts = np.arange(0, len(sizes), MULTI_TENSOR_BATCH)
    return [_ADAM_FUSED.rows([str(b) for b in range(len(starts))],
                             np.add.reduceat(sizes, starts))]


def _sgd_rows(inventory, sizes, fused: bool) -> list[tuple]:
    """SGD with momentum: one fused kernel, or four steps per tensor."""
    if not fused:
        return [_SGD_UNFUSED.rows([t.name for t in inventory], sizes)]
    return [_SGD_FUSED.rows([""], sizes.sum(keepdims=True))]


_EMITTERS = {"lamb": _lamb_rows, "adam": _adam_rows, "sgd": _sgd_rows}


def optimizer_kernels(name: str, inventory: Sequence[ParamTensor], *,
                      precision: Precision = Precision.FP32,
                      fused: bool = True) -> KernelTable:
    """The update-phase rows of optimizer ``name`` as one table.

    Args:
        name: ``"lamb"``, ``"adam"`` or ``"sgd"``.
        inventory: parameter tensors (see
            :func:`repro.trace.parameters.bert_parameter_inventory`), any
            of them sliced.
        precision: adds the gradient-cast / weight-cast rows, first, under
            mixed precision; the update itself always runs FP32.
        fused: emit the fused stage kernels (the paper's baseline: LAMB
            per layer group, Adam per multi-tensor batch) or the
            per-tensor-per-step eager decomposition.  Unfused Adam is the
            ~250x kernel-count gap of Fig. 12(a), with only a ~6-8x
            traffic gap, because different tensors' data is independent
            and gains nothing from sharing a launch.
    """
    if name not in _EMITTERS:
        raise ValueError(f"unknown optimizer {name!r}")
    sizes = np.array([t.n_elements for t in inventory], dtype=np.int64)
    if not len(sizes) or (sizes <= 0).any():
        raise ValueError("inventory tensors must have positive sizes")
    blocks = _EMITTERS[name](inventory, sizes, fused)
    if precision is Precision.MIXED:
        blocks.insert(0, _PRECISION_CASTS.rows([""], sizes.sum(keepdims=True)))
    names = [row_name for block_names, _ in blocks for row_name in block_names]
    columns = {key: np.concatenate([block[key] for _, block in blocks])
               for key in blocks[0][1]}
    constants = {"phase": code_of(Phase.OPTIMIZER), "layer": -1,
                 "component": code_of(Component.OPTIMIZER), "gemm_code": -1,
                 "dtype": code_of(DType.FP32), "fusion_code": -1}
    columns.update((key, np.full(len(names), value))
                   for key, value in constants.items())
    return KernelTable(name_code=np.arange(len(names)), names=names,
                       gemm_dims=(), fusion_groups=(), **columns)
