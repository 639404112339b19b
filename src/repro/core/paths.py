"""The three perception/reconstruction paths of DOINN (paper Figure 4, Tables 5-7).

* :class:`GlobalPerception` — average pooling followed by the Optimized
  Fourier Unit; captures low-frequency (semantic) mask content in the
  frequency domain (Table 5).
* :class:`LocalPerception` — stacked strided convolutions + VGG blocks;
  captures high-frequency edge/detail content (Table 6).
* :class:`ImageReconstruction` — transposed convolutions with skip
  concatenations followed by single-stride refinement convolutions; rebuilds
  the resist image at mask resolution (Table 7).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["VGGBlock", "GlobalPerception", "LocalPerception", "ImageReconstruction"]


class VGGBlock(nn.Module):
    """Two 3x3 convolutions with batch normalization and LeakyReLU(0.2).

    This is the "vgg" block of the paper's appendix tables (VGG-style stacked
    convolutions [23]).
    """

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.act = nn.LeakyReLU(0.2)

    def forward(self, x: Tensor) -> Tensor:
        x = self.act(self.bn1(self.conv1(x)))
        x = self.act(self.bn2(self.conv2(x)))
        return x

    def fusible_chain(self):
        """The whole block is one conv->BN->LeakyReLU fused chain (x2)."""
        return [(self.conv1, self.bn1, self.act), (self.conv2, self.bn2, self.act)]


class GlobalPerception(nn.Module):
    """GP path: AvgPool(/8) -> FFT -> truncation -> lift -> mix -> iFFT (Table 5)."""

    def __init__(
        self,
        channels: int = 16,
        modes: int = 8,
        pool_factor: int = 8,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.modes = modes
        self.pool_factor = pool_factor
        self.pool = nn.AvgPool2d(pool_factor)
        self.fourier_unit = nn.OptimizedFourierUnit(1, channels, modes=modes, negative_slope=0.1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Map a mask ``(N, 1, H, W)`` to GP features ``(N, C, H/8, W/8)``."""
        return self.fourier_unit(self.pool(x))

    def fusion_spectral(self) -> tuple[str, str]:
        """Compile the pooling and the Fourier unit into one fused GP op."""
        return ("pool", "fourier_unit")


class LocalPerception(nn.Module):
    """LP path: three stride-2 convolutions, each followed by a VGG block (Table 6).

    Produces three feature maps at 1/2, 1/4 and 1/8 of the input resolution;
    the finest two feed the skip concatenations of the reconstruction path.
    """

    def __init__(self, base_channels: int = 4, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        c1, c2, c3 = base_channels, base_channels * 2, base_channels * 4
        self.channels = (c1, c2, c3)
        self.conv1 = nn.Conv2d(1, c1, 4, stride=2, padding=1, rng=rng)
        self.vgg1 = VGGBlock(c1, c1, rng=rng)
        self.conv2 = nn.Conv2d(c1, c2, 4, stride=2, padding=1, rng=rng)
        self.vgg2 = VGGBlock(c2, c2, rng=rng)
        self.conv3 = nn.Conv2d(c2, c3, 4, stride=2, padding=1, rng=rng)
        self.vgg3 = VGGBlock(c3, c3, rng=rng)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Return (half-, quarter-, eighth-resolution) feature maps."""
        f1 = self._stage1(x)
        f2 = self._stage2(f1)
        f3 = self._stage3(f2)
        return f1, f2, f3

    # Each stage (strided conv + VGG block) is a straight-line conv chain, so
    # the compiler can run it as one fused kernel with a single entry pad.
    def _stage1(self, x: Tensor) -> Tensor:
        return self.vgg1(self.conv1(x))

    def _stage2(self, x: Tensor) -> Tensor:
        return self.vgg2(self.conv2(x))

    def _stage3(self, x: Tensor) -> Tensor:
        return self.vgg3(self.conv3(x))

    def fusion_rewrites(self):
        """Fuse each downsampling conv together with its VGG block."""
        def stage(conv, vgg):
            return [(conv, None, None), (vgg.conv1, vgg.bn1, vgg.act), (vgg.conv2, vgg.bn2, vgg.act)]

        return {
            "_stage1": stage(self.conv1, self.vgg1),
            "_stage2": stage(self.conv2, self.vgg2),
            "_stage3": stage(self.conv3, self.vgg3),
        }


class ImageReconstruction(nn.Module):
    """IR path: transposed convolutions with skips + refinement convs (Table 7)."""

    def __init__(
        self,
        gp_channels: int = 16,
        lp_channels: tuple[int, int, int] = (4, 8, 16),
        base_channels: int = 4,
        use_lp: bool = True,
        use_skips: bool = True,
        use_refine: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.use_lp = use_lp
        self.use_skips = use_skips and use_lp
        self.use_refine = use_refine
        c1, c2, c3 = lp_channels
        d1, d2, d3 = base_channels * 4, base_channels * 2, base_channels

        in1 = gp_channels + (c3 if use_lp else 0)
        self.dconv1 = nn.ConvTranspose2d(in1, d1, 4, stride=2, padding=1, rng=rng)
        self.vgg4 = VGGBlock(d1, d1, rng=rng)

        in2 = d1 + (c2 if self.use_skips else 0)
        self.dconv2 = nn.ConvTranspose2d(in2, d2, 4, stride=2, padding=1, rng=rng)
        self.vgg5 = VGGBlock(d2, d2, rng=rng)

        in3 = d2 + (c1 if self.use_skips else 0)
        self.dconv3 = nn.ConvTranspose2d(in3, d3, 4, stride=2, padding=1, rng=rng)
        self.vgg6 = VGGBlock(d3, d3, rng=rng)

        if use_refine:
            self.refine1 = nn.Conv2d(d3, d1 * 2, 3, stride=1, padding=1, rng=rng)
            self.refine2 = nn.Conv2d(d1 * 2, d1, 3, stride=1, padding=1, rng=rng)
            self.refine3 = nn.Conv2d(d1, d1, 3, stride=1, padding=1, rng=rng)
            self.output = nn.Conv2d(d1, 1, 3, stride=1, padding=1, rng=rng)
        else:
            self.output = nn.Conv2d(d3, 1, 3, stride=1, padding=1, rng=rng)
        self.relu = nn.ReLU()
        self.tanh = nn.Tanh()

    def forward(
        self,
        gp_features: Tensor,
        lp_features: tuple[Tensor, Tensor, Tensor] | None = None,
    ) -> Tensor:
        """Reconstruct the resist image from GP (and optionally LP) features."""
        if self.use_lp:
            if lp_features is None:
                raise ValueError("ImageReconstruction configured with use_lp=True requires lp_features")
            f1, f2, f3 = lp_features
            x = Tensor.cat([gp_features, f3], axis=1)
        else:
            x = gp_features

        x = self._up1(x)
        if self.use_skips:
            x = Tensor.cat([x, f2], axis=1)
        x = self._up2(x)
        if self.use_skips:
            x = Tensor.cat([x, f1], axis=1)
        x = self._up3(x)
        return self._refine_tail(x)

    # Each decoder stage (stride-2 transposed conv + VGG block) is a
    # straight-line chain — the skip concatenations happen *before* the
    # dconv, never between it and its VGG block — so the compiler runs it as
    # one fused kernel: the dconv's output crop lands directly inside the
    # zero border vgg conv1's padding needs (no crop copy, no re-pad).
    def _up1(self, x: Tensor) -> Tensor:
        return self.vgg4(self.dconv1(x))

    def _up2(self, x: Tensor) -> Tensor:
        return self.vgg5(self.dconv2(x))

    def _up3(self, x: Tensor) -> Tensor:
        return self.vgg6(self.dconv3(x))

    def _refine_tail(self, x: Tensor) -> Tensor:
        """Refinement convs + output head — a straight-line fusible chain."""
        if self.use_refine:
            x = self.relu(self.refine1(x))
            x = self.relu(self.refine2(x))
            x = self.relu(self.refine3(x))
        return self.tanh(self.output(x))

    def fusion_rewrites(self):
        """Fuse the ``dconvN -> vggN`` decoder stages and the refine tail."""

        def up(dconv, vgg):
            return [(dconv, None, None), (vgg.conv1, vgg.bn1, vgg.act), (vgg.conv2, vgg.bn2, vgg.act)]

        steps = []
        if self.use_refine:
            steps += [
                (self.refine1, None, self.relu),
                (self.refine2, None, self.relu),
                (self.refine3, None, self.relu),
            ]
        steps.append((self.output, None, self.tanh))
        return {
            "_up1": up(self.dconv1, self.vgg4),
            "_up2": up(self.dconv2, self.vgg5),
            "_up3": up(self.dconv3, self.vgg6),
            "_refine_tail": steps,
        }
