"""Symmetric transformer registration network with a self-contained autodiff core."""

from .cemsa import CemsaConfig, cemsa_block, multi_head_attention
from .deformation import (
    FoldingStats,
    compose,
    integrate,
    jacobian_determinant,
    warp,
)
from .losses import LossConfig, dice, similarity_loss, smoothness_loss, total_loss, warp_labels
from .model import (
    ModelConfig,
    SymTransParams,
    bind_model_params,
    forward,
    init_model_params,
    load_checkpoint,
    model_count_flops,
    model_count_parameters,
    save_checkpoint,
)
from .ops import Conv3dParams, LinearParams, conv3d, linear
from .tensor import Tensor, grad_check
from .training import SyntheticSpec, TrainConfig, generate_pair, register, train

__version__ = "0.1.0"
