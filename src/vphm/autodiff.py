"""Reverse-mode autodiff over dense numpy arrays.

Only the operations needed by the error-correction network are implemented:
elementwise arithmetic, log/exp, relu, matmul, reductions, column slicing
and a clamp. Convolution and pooling build their own graph nodes in
``vphm.nn``. Gradients are accumulated into ``.grad`` (same shape as
``.data``) during ``backward()``; the tape is freed afterwards so a second
``backward()`` on the same loss raises ``GraphFreed``.
"""

from __future__ import annotations

import numpy as np


class GraphFreed(RuntimeError):
    """backward() was called on an already-freed graph."""


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_freed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()
        self._freed = False

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return self.data.item()

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(self, data, prev):
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in prev)
        if out.requires_grad:
            out._prev = tuple(prev)
        return out

    # -- elementwise ops -----------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other.data.shape == self.data.shape:
            out = self._make(self.data + other.data, (self, other))

            def bwd(g):
                if self.requires_grad:
                    self._accumulate(g)
                if other.requires_grad:
                    other._accumulate(g)

        elif self.data.ndim == 2 and other.data.ndim == 1 \
                and self.data.shape[1] == other.data.shape[0]:
            # row-broadcast bias add
            out = self._make(self.data + other.data, (self, other))

            def bwd(g):
                if self.requires_grad:
                    self._accumulate(g)
                if other.requires_grad:
                    other._accumulate(g.sum(axis=0))

        else:
            raise ShapeMismatch(f"add: {self.data.shape} vs {other.data.shape}")
        if out.requires_grad:
            out._backward = bwd
        return out

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = self._make(self.data * other, (self,))
            if out.requires_grad:
                out._backward = lambda g: self._accumulate(g * other)
            return out
        other = self._lift(other)
        if other.data.shape != self.data.shape:
            raise ShapeMismatch(f"mul: {self.data.shape} vs {other.data.shape}")
        out = self._make(self.data * other.data, (self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        if out.requires_grad:
            out._backward = bwd
        return out

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        other = self._lift(other)
        if other.data.shape != self.data.shape:
            raise ShapeMismatch(f"div: {self.data.shape} vs {other.data.shape}")
        out = self._make(self.data / other.data, (self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data * other.data))

        if out.requires_grad:
            out._backward = bwd
        return out

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents supported")
        out = self._make(self.data ** p, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * p * self.data ** (p - 1))
        return out

    def exp(self):
        val = np.exp(self.data)
        out = self._make(val, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * val)
        return out

    def log(self):
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def relu(self):
        out = self._make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = self.data > 0.0
            out._backward = lambda g: self._accumulate(g * mask)
        return out

    def clamp_min(self, floor):
        """Elementwise max(x, floor); gradient passes only where x > floor."""
        out = self._make(np.maximum(self.data, floor), (self,))
        if out.requires_grad:
            mask = self.data > floor
            out._backward = lambda g: self._accumulate(g * mask)
        return out

    # -- linear algebra and shape ops ----------------------------------

    def matmul(self, other):
        other = self._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2 \
                or self.data.shape[1] != other.data.shape[0]:
            raise ShapeMismatch(f"matmul: {self.data.shape} @ {other.data.shape}")
        out = self._make(self.data @ other.data, (self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        if out.requires_grad:
            out._backward = bwd
        return out

    def __matmul__(self, other):
        return self.matmul(other)

    def column(self, idx):
        """Extract column idx of a 2-D tensor as a 1-D tensor."""
        if self.data.ndim != 2:
            raise ShapeMismatch("column() needs a 2-D tensor")
        out = self._make(self.data[:, idx].copy(), (self,))
        if out.requires_grad:
            def bwd(g):
                full = np.zeros_like(self.data)
                full[:, idx] = g
                self._accumulate(full)
            out._backward = bwd
        return out

    def sum(self):
        out = self._make(np.array(self.data.sum()), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(np.full_like(self.data, float(g)))
        return out

    def mean(self):
        n = self.data.size
        out = self._make(np.array(self.data.mean()), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(np.full_like(self.data, float(g) / n))
        return out

    # -- reverse pass ----------------------------------------------------

    def backward(self):
        """Run reverse-mode accumulation from this scalar node, then free the tape."""
        if self._freed:
            raise GraphFreed("backward() already ran on this graph; re-run forward first")
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss node")

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
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        for node in topo:
            node._backward = None
            node._prev = ()
        self._freed = True
