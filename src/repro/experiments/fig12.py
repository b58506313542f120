"""Fig. 12: impact of kernel fusion and GEMM fusion.

Three studies:

* **LayerNorm fusion** — the eager multi-kernel LN vs. the framework's
  fused kernels: kernel count, runtime and memory traffic all shrink
  6-8x because every unfused step re-streams the activation.
* **Optimizer (Adam) fusion** — multi-tensor-apply vs. one kernel per
  elementwise step per tensor: kernel count shrinks ~250x but runtime and
  traffic only 6-8x, because different tensors' data is independent and
  gains nothing from sharing a launch.
* **QKV GEMM fusion (Fig. 12b/13)** — 3 serial linear GEMMs (3S) vs. one
  concatenated GEMM (3F), across token counts: fusion helps most when the
  input is small.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BERT_LARGE, BertConfig
from repro.experiments.common import default_device
from repro.fusion.gemm_fusion import GemmFusionResult, fusion_sweep
from repro.fusion.passes import FusionImpact, fusion_impact
from repro.hw.device import DeviceModel
from repro.ops.base import DType, Phase
from repro.ops.reduction import layernorm_kernels
from repro.optim.kernels import optimizer_kernels
from repro.report.tables import format_table
from repro.trace.parameters import bert_parameter_inventory

#: Token counts for the QKV-fusion sweep (Fig. 12b's input-size axis).
DEFAULT_TOKEN_SWEEP = (256, 512, 1024, 4096, 16384)


@dataclass(frozen=True)
class Fig12Result:
    """All three fusion studies."""

    layernorm: FusionImpact
    adam: FusionImpact
    qkv_forward: list[GemmFusionResult]
    qkv_backward_weight: list[GemmFusionResult]

    @property
    def best_qkv_improvement(self) -> float:
        """Largest fractional gain across the sweep (paper: up to ~62%)."""
        results = self.qkv_forward + self.qkv_backward_weight
        return max(r.improvement for r in results)


def layernorm_fusion_impact(tokens: int, d_model: int,
                            device: DeviceModel) -> FusionImpact:
    """Unfused vs. fused LayerNorm (forward + backward) on one tensor."""
    unfused, fused = [], []
    for phase in (Phase.FORWARD, Phase.BACKWARD):
        unfused.extend(layernorm_kernels(rows=tokens, row_len=d_model,
                                         dtype=DType.FP32, phase=phase,
                                         fused=False))
        fused.extend(layernorm_kernels(rows=tokens, row_len=d_model,
                                       dtype=DType.FP32, phase=phase,
                                       fused=True))
    return fusion_impact(unfused, fused, device)


def adam_fusion_impact(model: BertConfig,
                       device: DeviceModel) -> FusionImpact:
    """Unfused vs. multi-tensor fused Adam over the whole model."""
    inventory = bert_parameter_inventory(model)
    unfused = optimizer_kernels("adam", inventory, fused=False)  # FP32
    fused = optimizer_kernels("adam", inventory, fused=True)
    return fusion_impact(unfused, fused, device)


def run(model: BertConfig = BERT_LARGE, tokens: int = 4096,
        device: DeviceModel | None = None,
        token_sweep: tuple[int, ...] = DEFAULT_TOKEN_SWEEP) -> Fig12Result:
    """Run all Fig. 12 studies."""
    device = device or default_device()
    return Fig12Result(
        layernorm=layernorm_fusion_impact(tokens, model.d_model, device),
        adam=adam_fusion_impact(model, device),
        qkv_forward=fusion_sweep(model.d_model, list(token_sweep), device,
                                 pass_name="fwd"),
        qkv_backward_weight=fusion_sweep(model.d_model, list(token_sweep),
                                         device, pass_name="bwd_wt"),
    )


def render(result: Fig12Result) -> str:
    impact_rows = []
    for name, impact in (("LayerNorm", result.layernorm),
                         ("Adam", result.adam)):
        impact_rows.append((
            name,
            f"{impact.kernels_before} -> {impact.kernels_after} "
            f"({impact.kernel_ratio:.0f}x)",
            f"{impact.bytes_ratio:.1f}x",
            f"{impact.time_ratio:.1f}x"))
    part_a = format_table(("fusion target", "kernels", "traffic", "runtime"),
                          impact_rows)

    sweep_rows = [(r.tokens,
                   f"{r.serial_s * 1e6:.0f}us",
                   f"{r.fused_s * 1e6:.0f}us",
                   f"+{r.improvement * 100:.0f}%")
                  for r in result.qkv_forward]
    part_b = format_table(("tokens", "3S (serial)", "3F (fused)", "gain"),
                          sweep_rows)
    return f"{part_a}\n\nQKV linear-GEMM fusion (forward):\n{part_b}"
