"""Tests for the training configuration and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DOINN, DOINNConfig
from repro.data import MaskResistDataset
from repro.nn import functional as F
from repro.training import Trainer, TrainingConfig, TrainingHistory
from tests.nn import conv_reference


def toy_dataset(n=8, size=32):
    """A learnable toy problem: the resist is a blurred, thresholded mask."""
    rng = np.random.default_rng(5)
    masks = np.zeros((n, size, size))
    resists = np.zeros_like(masks)
    for i in range(n):
        r, c = rng.integers(4, size - 12, size=2)
        masks[i, r : r + 8, c : c + 8] = 1.0
        resists[i, r + 1 : r + 7, c + 1 : c + 7] = 1.0
    return MaskResistDataset(masks, resists, name="toy", pixel_size=16.0)


def tiny_model():
    return DOINN(DOINNConfig(gp_channels=4, lp_base_channels=2, modes=2))


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #
def test_paper_config_matches_table8():
    config = TrainingConfig.paper()
    rows = dict(config.as_rows())
    assert rows["Max Epoch"] == 10
    assert rows["Initial Learning Rate"] == 0.002
    assert rows["Learning Rate Decay Factor"] == 0.5
    assert rows["Batch Size"] == 16
    assert rows["Optimizer"] == "Adam"
    assert rows["Weight Decay"] == 1e-4
    assert rows["Loss"] == "MSE"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(loss="hinge")


def test_fast_config_is_smaller_than_paper():
    fast = TrainingConfig.fast()
    assert fast.max_epochs < TrainingConfig.paper().max_epochs


# --------------------------------------------------------------------- #
# Trainer
# --------------------------------------------------------------------- #
def test_training_reduces_loss():
    data = toy_dataset()
    trainer = Trainer(tiny_model(), TrainingConfig.fast(max_epochs=4, batch_size=4))
    history = trainer.fit(data)
    assert history.epochs == 4
    assert history.improved()
    assert history.final_loss < history.epoch_losses[0]
    assert history.wall_time > 0


def test_learning_rate_decays_during_training():
    data = toy_dataset(n=4)
    trainer = Trainer(tiny_model(), TrainingConfig.fast(max_epochs=5, batch_size=4))
    history = trainer.fit(data)
    assert history.learning_rates[-1] < history.learning_rates[0]


def test_validation_miou_recorded():
    data = toy_dataset()
    trainer = Trainer(tiny_model(), TrainingConfig.fast(max_epochs=2, batch_size=4))
    history = trainer.fit(data, validation_data=data)
    assert len(history.validation_miou) == 2
    assert all(0.0 <= v <= 1.0 for v in history.validation_miou)


def test_train_step_returns_finite_loss():
    data = toy_dataset(n=4)
    trainer = Trainer(tiny_model(), TrainingConfig.fast(max_epochs=1, batch_size=2))
    loss = trainer.train_step(data.masks[:2], data.resists[:2])
    assert np.isfinite(loss)


@pytest.mark.parametrize("loss_name", ["mse", "bce", "dice"])
def test_all_losses_trainable(loss_name):
    data = toy_dataset(n=4)
    config = TrainingConfig(max_epochs=1, batch_size=2, learning_rate=0.002, loss=loss_name)
    trainer = Trainer(tiny_model(), config)
    history = trainer.fit(data)
    assert np.isfinite(history.final_loss)


@pytest.mark.parametrize("name", ["doinn", "unet", "damo-dls"])
def test_train_step_matches_reference_conv_passes(name, tiny_model_factory, monkeypatch):
    """One train step with the block-kernel convs against the same step with
    the window-view ``tensordot``/``col2im`` reference passes: the same loss,
    and every parameter gradient within 1e-12 of the model's largest
    |gradient|.  The bound is model-wide, not per parameter: a conv bias that
    feeds a train-mode batch norm has an analytic gradient of zero, and both
    passes read round-off there."""
    rng = np.random.default_rng(3)
    masks = (rng.random((4, 1, 32, 32)) > 0.5).astype(float)
    resists = (rng.random((4, 1, 32, 32)) > 0.5).astype(float)
    losses, grads = {}, {}
    for tag in ("block", "reference"):
        if tag == "reference":
            monkeypatch.setattr(F, "conv2d", conv_reference.conv2d)
            monkeypatch.setattr(F, "conv_transpose2d", conv_reference.conv_transpose2d)
        model = tiny_model_factory(name)
        model.train()
        losses[tag] = Trainer(model, TrainingConfig()).train_step(masks, resists)
        grads[tag] = {p_name: p.grad for p_name, p in model.named_parameters()}
    assert losses["block"] == pytest.approx(losses["reference"], rel=1e-12)
    scale = max(np.abs(grad).max() for grad in grads["reference"].values())
    assert scale > 0.0
    for p_name, grad in grads["reference"].items():
        assert np.abs(grads["block"][p_name] - grad).max() <= 1e-12 * scale, p_name


def test_history_helpers():
    history = TrainingHistory(epoch_losses=[1.0, 0.5])
    assert history.improved()
    assert history.final_loss == 0.5
    empty = TrainingHistory()
    assert not empty.improved()
    assert np.isnan(empty.final_loss)
