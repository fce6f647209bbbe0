"""Seeded randomness and stable hashing.

All randomness in the package flows through numpy's PCG64 bit generator.
Each named component (embedder, router for layer 3, ...) draws from its
own generator spawned from the run seed and the component name, so adding
or removing a component never shifts the initialization of the others.
Python's builtin hash() is salted per process and is never used here.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash. Deterministic across processes and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def generator(seed: int, component: str | None = None) -> np.random.Generator | None:
    """PCG64 generator for a run seed, optionally keyed by component name.

    Within no_draws() it builds nothing and returns None, which gaussian()
    never reads there; any other use of it fails loudly.
    """
    if getattr(_LOCAL, "no_draws", False):
        return None
    if component is None:
        seq = np.random.SeedSequence(seed)
    else:
        key = fnv1a_64(component.encode("utf-8"))
        seq = np.random.SeedSequence(seed, spawn_key=(key & 0xFFFFFFFF, key >> 32))
    return np.random.Generator(np.random.PCG64(seq))


_LOCAL = threading.local()


@contextlib.contextmanager
def no_draws():
    """Within this context, on this thread only, nothing is seeded or drawn.

    generator() builds no generator and returns None, and gaussian()
    returns an uninitialized array without reading its generator, so a
    generator built outside the context is left untouched. Only a
    checkpoint load enters it: the load overwrites every tensor or raises,
    so no undrawn array outlives a successful load.
    """
    outer = getattr(_LOCAL, "no_draws", False)
    _LOCAL.no_draws = True
    try:
        yield
    finally:
        _LOCAL.no_draws = outer


def gaussian(gen: np.random.Generator | None, shape, std: float,
             dtype=np.float64) -> np.ndarray:
    """N(0, std) draws of `shape` in `dtype`: drawn in float64 and rounded
    once, so a float32 draw is the float64 one rounded."""
    if getattr(_LOCAL, "no_draws", False):
        return np.empty(shape, dtype)
    return gen.normal(0.0, std, size=shape).astype(dtype, copy=False)
