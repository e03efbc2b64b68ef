"""Mixed-radix integer codes and sums by code, shared by `chars` and `conncalc`.

A `Box` numbers the integer points lo..hi in mixed radix, the first
coordinate the most significant digit, so that code order is lexicographic
order and adding points adds codes.  `sum_by_code` sums values per code,
and `run_sums` per run of equal codes in a sorted array, integers exactly.
`stable_order` is the one sort order of the package: equal keys keep the
order given.
Codes and integer values are int64 only below the guards of `Box` and
`value_dtype`, and Python ints (dtype object) beyond them.
"""
from __future__ import annotations

import math

import numpy as np

INT64_SAFE = 1 << 62  # int64 holds every code, product and sum below this

# Largest single array the engines let outside input make them allocate
# (128 MiB): `conncalc.build_algebra` and the `chars` folds refuse more.
MAX_ARRAY_BYTES = 1 << 27


def value_dtype(bound: int):
    """int64 when `bound`, which bounds every value, product and partial sum
    of a computation, is below 2^62; object (Python ints) otherwise."""
    return np.int64 if bound < INT64_SAFE else object


class Box:
    """The integer points lo..hi: `lo`, the `spans`, the mixed-radix
    `strides` and the number `size`, as Python ints, and `dtype`, the dtype
    of their codes: int64 only when size < 2^62 and every coordinate in
    `coords` (those the caller measures from an origin) is below 2^61 in
    size, object otherwise."""

    def __init__(self, lo, hi, coords=()):
        self.lo, self.spans = list(lo), [h - l + 1 for l, h in zip(lo, hi)]
        self.strides = [math.prod(self.spans[i + 1:]) for i in range(len(self.spans))]
        self.size = math.prod(self.spans)
        fits = self.size < INT64_SAFE and all(abs(x) < INT64_SAFE // 2 for x in coords)
        self.dtype = np.int64 if fits else object

    def encode(self, points: np.ndarray, origin=None) -> np.ndarray:
        """(points - origin) @ strides over the (n, rank) rows of `points`:
        the code of each row for the default origin lo, otherwise its offset
        from the code of `origin`."""
        origin = self.lo if origin is None else origin
        origin, strides = (np.array(x, dtype=self.dtype) for x in (origin, self.strides))
        return (points.astype(self.dtype, copy=False) - origin) @ strides

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The (n, rank) points of the codes."""
        lo, spans, strides = (np.array(x, dtype=self.dtype) for x in (self.lo, self.spans, self.strides))
        return (codes.astype(self.dtype, copy=False)[:, None] // strides) % spans + lo


def sum_by_code(blocks, size: int, terms: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of a nonempty stream of (codes, values) blocks, in
    increasing order, and the nonzero sums of the values at each.

    The blocks hold `terms` codes in all, each in range(start, start + size).
    When size <= terms, `np.add.at` sums them in the order given into one
    dense array, no larger than the blocks.  Otherwise `np.add.reduceat`
    sums each block in its stable order by code (`stable_order`), so equal
    codes sum in the order they are given, and merges several blocks so
    once.
    """
    if size > terms:
        parts = [_sorted_sums(codes, vals) for codes, vals in blocks]
        codes, vals = parts[0] if len(parts) == 1 else _sorted_sums(
            np.concatenate([c for c, _ in parts]), np.concatenate([v for _, v in parts]))
        keep = vals != 0
        return (codes, vals) if keep.all() else (codes[keep], vals[keep])
    acc = None
    for codes, vals in blocks:
        if start:
            codes -= start
        acc = np.zeros(size, dtype=vals.dtype) if acc is None else acc
        np.add.at(acc, codes.astype(np.intp, copy=False), vals)
    codes = np.flatnonzero(acc)
    return codes + start, acc[codes]


def _sorted_sums(codes: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sort branch of `sum_by_code` on one block, zeros kept."""
    step = np.diff(codes).min(initial=1)
    if step > 0:  # sorted and distinct already
        return codes, vals
    if step < 0:
        order = stable_order(codes)
        codes, vals = codes[order], vals[order]
        del order
    return run_sums(codes, vals)


def stable_order(keys: np.ndarray, nkeys: int | None = None) -> np.ndarray:
    """`np.argsort(keys, kind="stable")`, as one `np.sort` of the distinct
    int64 keys key * n + i of the n keys, modulo n.  The keys are in
    range(nkeys) when `nkeys` is given, and are measured from their least
    otherwise.  Object keys, and key ranges with nkeys * n >= 2^62, fall back
    to `np.argsort`."""
    n = len(keys)
    if not n:
        return np.arange(0)
    if keys.dtype != object:
        lo = 0 if nkeys is not None else int(keys.min())
        span = nkeys if nkeys is not None else int(keys.max()) - lo + 1
        if span * n < INT64_SAFE:
            order = keys.astype(np.int64)
            if lo:
                order -= lo
            order *= n
            order += np.arange(n)
            order.sort()
            order %= n
            return order
    return np.argsort(keys, kind="stable")


def run_sums(codes: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of sorted `codes` and the sum of the values of each
    run of equal codes (`np.add.reduceat`), zeros kept."""
    new = codes[1:] != codes[:-1]
    if new.all():
        return codes, vals
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return codes[starts], np.add.reduceat(vals, starts)
