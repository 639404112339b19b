"""A small NumPy-backed deep-learning framework.

This package replaces PyTorch in the reproduction: it provides autograd
tensors, image layers (convolution, transposed convolution, pooling,
batch normalization), the complex spectral layers used by DOINN and the
baseline FNO, losses, optimizers and serialization.
"""

from . import functional
from .backends import (
    BACKENDS,
    BACKEND_ENV,
    BLAS_THREADS_ENV,
    DEFAULT_BACKEND,
    resolve_backend,
    set_blas_threads,
)
from .fusion import (
    CompiledChain,
    CompiledFourierUnit,
    FusedChain,
    FusedConvBNAct,
    FusedConvTranspose,
    FusedInferenceGraph,
    FusionFallbackWarning,
    compile_model,
)
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    FNOFourierLayer,
    eval_mode,
    Identity,
    LeakyReLU,
    MaxPool2d,
    Module,
    OptimizedFourierUnit,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    UpsampleNearest2d,
)
from .loss import BCELoss, DiceLoss, MSELoss, bce_loss, dice_loss, mse_loss
from .optim import SGD, Adam, Optimizer, StepLR
from .serialization import load_model, load_state, save_model, save_state
from .spectral import fourier_unit, spectral_conv2d, truncate_spectrum, scatter_spectrum
from .tensor import Tensor, no_grad

__all__ = [
    "functional",
    "BACKENDS",
    "BACKEND_ENV",
    "BLAS_THREADS_ENV",
    "DEFAULT_BACKEND",
    "resolve_backend",
    "set_blas_threads",
    "CompiledChain",
    "CompiledFourierUnit",
    "FusedChain",
    "FusedConvBNAct",
    "FusedConvTranspose",
    "FusedInferenceGraph",
    "FusionFallbackWarning",
    "compile_model",
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "eval_mode",
    "Sequential",
    "Identity",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "AvgPool2d",
    "MaxPool2d",
    "UpsampleNearest2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "OptimizedFourierUnit",
    "FNOFourierLayer",
    "MSELoss",
    "BCELoss",
    "DiceLoss",
    "mse_loss",
    "bce_loss",
    "dice_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "save_model",
    "load_model",
    "save_state",
    "load_state",
    "fourier_unit",
    "spectral_conv2d",
    "truncate_spectrum",
    "scatter_spectrum",
]
