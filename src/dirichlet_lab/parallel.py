"""Deterministic indexed map.

Work is keyed by item index and results are collected in index order;
worker randomness comes from index-keyed substreams, so no result byte
depends on evaluation order.  The map is serial: the lab's work is pure
Python, and a thread pool over it measured no faster than one thread.
"""

from __future__ import annotations


def indexed_map(fn, count: int) -> list:
    """[fn(0), ..., fn(count-1)], in index order."""
    return [fn(i) for i in range(count)]
