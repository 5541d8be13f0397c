"""Optimization: Adam with bias correction, exponential LR decay, early stop.

The schedule is lr_at(t) = lr0 * decay^t with t counting completed epochs, so
the first epoch trains at lr0. Early stopping watches validation loss with a
patience counter and restores the best epoch's parameters exactly (the
returned tensors are the snapshot taken when that epoch finished).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluationSet, NonFiniteLoss, ShapeMismatch
from .nn import CnnConfig, Workspace, backward, cross_entropy, forward, init_params


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 400
    lr0: float = 1e-3
    lr_decay: float = 0.99
    patience: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ShapeMismatch(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ShapeMismatch(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.patience < 1:
            raise ShapeMismatch(f"patience must be >= 1, got {self.patience}")
        # written so that NaN fails too: a step with lr0 <= 0 climbs the loss,
        # and beta = 1 zeroes Adam's bias correction
        if not self.lr0 > 0.0:
            raise ShapeMismatch(f"lr0 must be > 0, got {self.lr0!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ShapeMismatch(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0.0:
            raise ShapeMismatch(f"eps must be > 0, got {self.eps!r}")


def lr_at(t: int, lr0: float = 1e-3, decay: float = 0.99) -> float:
    """Learning rate after t completed epochs: lr0 * decay^t."""
    if t < 0:
        raise ShapeMismatch(f"epoch index must be >= 0, got {t}")
    return lr0 * decay ** t


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        step=0,
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    t = state.step + 1
    new_params = {}
    new_m = {}
    new_v = {}
    for name, p in params.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        new_params[name] = p - lr * mhat / (np.sqrt(vhat) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(m=new_m, v=new_v, step=t)


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    epoch_log: list[dict]  # the log rows: epoch, lr, train_loss, val_loss, val_acc
    best_epoch: int
    stopped_epoch: int


def evaluate(
    params: dict, cfg: CnnConfig, batches, workspace: Workspace | None = None
) -> tuple[float, float]:
    """(mean loss, accuracy), sample-weighted.

    batches is a list of (x, onehot) pairs. Without a workspace, one is made
    for this call and shared by its batches.
    """
    if not batches:
        raise EmptyEvaluationSet("no batches to evaluate")
    if workspace is None:
        workspace = Workspace(cfg)
    total_loss = 0.0
    total_correct = 0
    total_n = 0
    for x, y in batches:
        probs = forward(params, cfg, x, workspace)
        total_loss += cross_entropy(probs, y) * len(x)
        total_correct += int((probs.argmax(axis=1) == y.argmax(axis=1)).sum())
        total_n += len(x)
    if total_n == 0:
        raise EmptyEvaluationSet("batches contain no samples")
    return total_loss / total_n, total_correct / total_n


def train(cfg: CnnConfig, tcfg: TrainConfig, train_batches, val_batches) -> TrainResult:
    """Seeded full training run with early stopping on validation loss.

    train_batches and val_batches are lists of (x, onehot) pairs. Batch
    composition is fixed; only the visit order is reshuffled each epoch. One
    float32 workspace serves every backward and validation forward pass of the
    run, so early stopping compares validation losses computed through it; the
    parameters and Adam's moments stay float64.
    """
    if not train_batches:
        raise EmptyEvaluationSet("no training batches")
    params = init_params(cfg)
    state = adam_init(params)
    workspace = Workspace(cfg, np.float32)
    rng = np.random.default_rng(tcfg.seed)
    best_loss = np.inf
    best_params = {k: p.copy() for k, p in params.items()}
    best_epoch = 0
    epochs_since_best = 0
    epoch_log: list[dict] = []
    epoch = 0
    for epoch in range(1, tcfg.max_epochs + 1):
        lr = lr_at(epoch - 1, tcfg.lr0, tcfg.lr_decay)
        order = rng.permutation(len(train_batches))
        loss_sum = 0.0
        n_sum = 0
        for batch_idx in order:
            x, y = train_batches[batch_idx]
            loss, grads = backward(params, cfg, x, y, workspace)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"training loss not finite at epoch {epoch}")
            params, state = adam_step(
                params, grads, state, lr, tcfg.beta1, tcfg.beta2, tcfg.eps
            )
            loss_sum += loss * len(x)
            n_sum += len(x)
        train_loss = loss_sum / n_sum
        val_loss, val_acc = evaluate(params, cfg, val_batches, workspace)
        if not np.isfinite(val_loss):
            raise NonFiniteLoss(f"validation loss not finite at epoch {epoch}")
        epoch_log.append(
            {"epoch": epoch, "lr": lr, "train_loss": train_loss,
             "val_loss": val_loss, "val_acc": val_acc}
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = {k: p.copy() for k, p in params.items()}
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= tcfg.patience:
                break
    return TrainResult(
        params=best_params,
        epoch_log=epoch_log,
        best_epoch=best_epoch,
        stopped_epoch=epoch,
    )
