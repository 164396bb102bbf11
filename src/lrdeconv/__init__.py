"""Multichannel Fourier deconvolution under long-range dependent Gaussian noise.

Modules: ``fourier`` (the Fourier convention), ``noise`` (LRD error laws and
exact sampling), ``meyer`` (periodized Meyer basis in the Fourier domain),
``channels`` (designs, kernels, design functionals), ``estimator``
(deconvolution, block thresholding), ``riskbench`` (Monte Carlo risk),
``config`` (YAML configs), ``errors`` (exceptions mapped to exit codes) and
``cli`` (configuration-driven command line front end).
"""

__version__ = "0.1.0"

from .channels import BlurKernel, ChannelDesign
from .estimator import EstimatorConfig, estimate
from .fourier import FourierSeries
from .meyer import MeyerSpec
from .noise import NoiseModel
from .riskbench import BesovBall

__all__ = [
    "__version__",
    "BlurKernel",
    "ChannelDesign",
    "EstimatorConfig",
    "FourierSeries",
    "MeyerSpec",
    "NoiseModel",
    "BesovBall",
    "estimate",
]
