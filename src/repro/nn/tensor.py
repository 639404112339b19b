"""Reverse-mode autograd tensor.

This module is the foundation of the :mod:`repro.nn` deep-learning framework.
It provides a small, NumPy-backed :class:`Tensor` with define-by-run automatic
differentiation, covering the operations needed by the DOINN model and its
baselines (element-wise arithmetic, matrix multiplication, reductions,
reshaping, slicing, padding and concatenation).  Convolution, pooling and
spectral operations are implemented as fused primitives in
:mod:`repro.nn.functional` and :mod:`repro.nn.spectral` and plug into the same
graph through :func:`Tensor.from_op`.

The design intentionally mirrors the user-facing behaviour of PyTorch tensors
(``requires_grad``, ``backward``, ``grad``) so that the model code in
:mod:`repro.core` reads like the architecture description in the paper.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation and inference to avoid building the autograd graph,
    matching ``torch.no_grad`` semantics.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GRAD_ENABLED[0] = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations are recorded for differentiation."""
    return _GRAD_ENABLED[0]


def _to_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        # repro: ok(DTYPE001, dtype equality check that accepts caller-provided float32 arrays; nothing narrows here)
        if data.dtype == np.float64 or data.dtype == np.float32:
            return data
        if np.issubdtype(data.dtype, np.complexfloating):
            return data
        return data.astype(np.float64)
    return np.asarray(data, dtype=np.float64)


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (produced with broadcasting) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _prev: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        self.data = _to_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._prev: tuple[Tensor, ...] = tuple(_prev) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a tensor produced by a fused operation.

        ``backward`` receives the upstream gradient and is responsible for
        accumulating into each parent via :meth:`accumulate_grad`.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def zeros(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Gradient plumbing
    # ------------------------------------------------------------------ #
    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into this tensor if it requires gradients."""
        if not self.requires_grad:
            return
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            grad = _sum_to_shape(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True) if not np.iscomplexobj(grad) else grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (for scalar losses it is simply 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad)
            other.accumulate_grad(grad)

        return Tensor.from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(-grad)

        return Tensor.from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad)
            other.accumulate_grad(-grad)

        return Tensor.from_op(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * other.data)
            other.accumulate_grad(grad * self.data)

        return Tensor.from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad / other.data)
            other.accumulate_grad(-grad * self.data / (other.data ** 2))

        return Tensor.from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor.from_op(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other.accumulate_grad(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor.from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out_data)

        return Tensor.from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad / self.data)

        return Tensor.from_op(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * np.sign(self.data))

        return Tensor.from_op(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            mask = (self.data >= low) & (self.data <= high)
            self.accumulate_grad(grad * mask)

        return Tensor.from_op(out_data, (self,), backward)

    def maximum(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = np.maximum(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            self_mask = self.data >= other.data
            self.accumulate_grad(grad * self_mask)
            other.accumulate_grad(grad * (~self_mask))

        return Tensor.from_op(out_data, (self, other), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * (self.data > 0.0))

        return Tensor.from_op(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = np.where(self.data > 0.0, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * np.where(self.data > 0.0, 1.0, negative_slope))

        return Tensor.from_op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out_data * (1.0 - out_data))

        return Tensor.from_op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * (1.0 - out_data ** 2))

        return Tensor.from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(g, self.data.shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                expanded = np.broadcast_to(g, self.data.shape)
            self.accumulate_grad(expanded)

        return Tensor.from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, (tuple, list)):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is None:
                mask = self.data == self.data.max()
                count = mask.sum()
                self.accumulate_grad(np.broadcast_to(g, self.data.shape) * mask / count)
            else:
                full = self.data.max(axis=axis, keepdims=True)
                mask = self.data == full
                count = mask.sum(axis=axis, keepdims=True)
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self.accumulate_grad(np.broadcast_to(g, self.data.shape) * mask / count)

        return Tensor.from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(np.asarray(grad).reshape(self.data.shape))

        return Tensor.from_op(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(np.asarray(grad).transpose(inverse))

        return Tensor.from_op(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self.accumulate_grad(full)

        return Tensor.from_op(out_data, (self,), backward)

    def pad2d(self, pad: int | tuple[int, int, int, int]) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions.

        ``pad`` is either a single int applied to all four sides or a tuple
        ``(top, bottom, left, right)``.
        """
        if isinstance(pad, int):
            top = bottom = left = right = pad
        else:
            top, bottom, left, right = pad
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(top, bottom), (left, right)]
        out_data = np.pad(self.data, pad_width)
        h, w = self.data.shape[-2], self.data.shape[-1]

        def backward(grad: np.ndarray) -> None:
            sl = [slice(None)] * (self.data.ndim - 2) + [slice(top, top + h), slice(left, left + w)]
            self.accumulate_grad(np.asarray(grad)[tuple(sl)])

        return Tensor.from_op(out_data, (self,), backward)

    @staticmethod
    def cat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, end)
                tensor.accumulate_grad(grad[tuple(sl)])

        return Tensor.from_op(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            for i, tensor in enumerate(tensors):
                tensor.accumulate_grad(np.take(grad, i, axis=axis))

        return Tensor.from_op(out_data, tuple(tensors), backward)
