"""Kernel- and GEMM-fusion modeling (Sec. 6.1)."""

from repro.fusion.attention_fusion import FusedAttentionPass
from repro.fusion.windowed_transform import WindowedAttentionPass
from repro.fusion.gemm_fusion import (GemmFusionResult, fused_qkv_shapes,
                                      fusion_sweep, qkv_fusion_comparison)
from repro.fusion.passes import (ElementwiseChainFusionPass, FusionImpact,
                                 fuse_chain, fusion_impact)

__all__ = [
    "ElementwiseChainFusionPass", "FusedAttentionPass", "FusionImpact",
    "GemmFusionResult", "WindowedAttentionPass", "fuse_chain",
    "fused_qkv_shapes", "fusion_impact", "fusion_sweep",
    "qkv_fusion_comparison",
]
