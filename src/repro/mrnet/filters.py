"""Reduction filters for MRNet internal nodes.

In MRNet, a *filter* is the code an internal process runs over the packets
arriving from its children before forwarding one combined packet to its
parent.  Mr. Scan uses two domain filters — grid-histogram reduction in
the partitioner and progressive cluster merging (§3.3) in the merge phase
— plus trivial ones for control data.  Filters here are small picklable
objects so the multiprocessing transport can ship them to workers.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

__all__ = ["Filter", "CombineAtRoot", "FunctionFilter", "ListConcatFilter", "SumFilter"]


@runtime_checkable
class Filter(Protocol):
    """The upstream-combination protocol.

    ``combine`` receives the payloads of a node's children (leaf outputs
    or already-combined child results) in child order and returns the
    payload to forward upstream.  Implementations must be pure functions
    of their inputs: internal nodes at the same level may run in any order
    or in parallel.

    ``root`` is the same step at the root node, whose output is the
    collective's result and goes to no parent: a filter may yield there
    something other than what its internal nodes forward (the merge
    filter's root yields global ids, not a merged summary).
    """

    def combine(self, payloads: Sequence[Any]) -> Any:
        ...

    def root(self, payloads: Sequence[Any]) -> Any:
        ...


class CombineAtRoot:
    """A filter whose root application is an ordinary ``combine``."""

    def root(self, payloads: Sequence[Any]) -> Any:
        return self.combine(payloads)


class FunctionFilter(CombineAtRoot):
    """Wrap a plain function ``f(list_of_payloads) -> payload``.

    The function must be defined at module top level to survive pickling
    into worker processes.
    """

    def __init__(self, fn: Callable[[Sequence[Any]], Any]) -> None:
        self.fn = fn

    def combine(self, payloads: Sequence[Any]) -> Any:
        return self.fn(payloads)


class ListConcatFilter(CombineAtRoot):
    """Concatenate child lists (order-preserving)."""

    def combine(self, payloads: Sequence[Any]) -> list:
        out: list = []
        for p in payloads:
            out.extend(p)
        return out


class SumFilter(CombineAtRoot):
    """Add child payloads (numbers, numpy arrays, anything with +)."""

    def combine(self, payloads: Sequence[Any]):
        if not payloads:
            return 0
        total = payloads[0]
        for p in payloads[1:]:
            total = total + p
        return total
