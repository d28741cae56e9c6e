"""Xorshift pseudo-random number generation with stateless regeneration.

DropBack (Golub et al., MLSys 2019) never stores the initialization values of
untracked weights.  Instead each value is *regenerated on demand* from a
single seed and the weight's global index.  The paper uses Marsaglia's
xorshift generator (Marsaglia, 2003): regenerating one normally distributed
value costs six 32-bit integer operations plus one floating-point operation
(~1.5 pJ at 45 nm), versus ~640 pJ for a DRAM access.

This module provides two layers of API:

* :class:`Xorshift32` / :class:`Xorshift128` — faithful sequential xorshift
  generators, bit-exact with the reference C implementations.
* :func:`xorshift_at` / :func:`uniform_at` / :func:`normal_at` — *stateless*
  per-index generation: ``value = f(seed, index)``.  This is the property the
  hardware proposal relies on (any weight's init value is recomputable at any
  time without touching memory), and what :class:`repro.init.initializers`
  builds on.

The stateless form hashes ``(seed, index)`` into a xorshift state using a
SplitMix-style avalanche, then applies one xorshift32 round.  All arithmetic
is vectorized uint32/uint64 numpy so whole layers regenerate in one call;
:func:`normal_at` works through fixed chunks with reused scratch, so
regenerating a plane takes little memory beyond the plane itself.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Xorshift32",
    "Xorshift128",
    "xorshift_at",
    "uniform_at",
    "normal_at",
    "REGEN_INT_OPS",
    "REGEN_FLOAT_OPS",
]

_U32 = np.uint32
_U64 = np.uint64
_PHI = 0x9E3779B97F4A7C15  # 2**64 / golden ratio
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Indices :func:`normal_at` regenerates per pass.  Its six scratch arrays
#: (40 bytes per index, about 330 KB) are allocated once per call and
#: reused, so each pass runs in cache and the call's memory beyond its
#: output stays the same however large the plane.
_CHUNK = 8192

#: Integer / float operation counts for regenerating ONE normal value,
#: as accounted in the paper (Section 2.1): "six 32-bit integer operations
#: and one 32-bit floating point operation".  Used by :mod:`repro.energy`.
REGEN_INT_OPS = 6
REGEN_FLOAT_OPS = 1


class Xorshift32:
    """Marsaglia's 32-bit xorshift generator (shifts 13, 17, 5).

    Bit-exact with the reference implementation::

        x ^= x << 13; x ^= x >> 17; x ^= x << 5;

    Parameters
    ----------
    seed:
        Non-zero 32-bit seed.  Zero is a fixed point of xorshift and is
        rejected.
    """

    def __init__(self, seed: int) -> None:
        seed = int(seed) & 0xFFFFFFFF
        if seed == 0:
            raise ValueError("xorshift seed must be non-zero")
        self._state = _U32(seed)

    @property
    def state(self) -> int:
        """Current 32-bit generator state."""
        return int(self._state)

    def next_u32(self) -> int:
        """Advance one step and return the next 32-bit output."""
        with np.errstate(over="ignore"):
            x = self._state
            x ^= _U32((int(x) << 13) & 0xFFFFFFFF)
            x ^= x >> _U32(17)
            x ^= _U32((int(x) << 5) & 0xFFFFFFFF)
            self._state = x
        return int(x)

    def next_float(self) -> float:
        """Next value uniform on [0, 1)."""
        return self.next_u32() / 4294967296.0


class Xorshift128:
    """Marsaglia's xorshift128 generator (period 2**128 - 1).

    Reference sequence: with state ``(x, y, z, w)``::

        t = x ^ (x << 11)
        x, y, z = y, z, w
        w = w ^ (w >> 19) ^ t ^ (t >> 8)

    Parameters
    ----------
    seed:
        Any integer; expanded into the four state words via a SplitMix64
        sequence so that nearby seeds give unrelated streams.
    """

    def __init__(self, seed: int) -> None:
        s = _splitmix64_scalar(int(seed) & 0xFFFFFFFFFFFFFFFF)
        words = []
        for _ in range(4):
            s, out = _splitmix64_next(s)
            words.append(out & 0xFFFFFFFF or 0x9E3779B9)
        self._x, self._y, self._z, self._w = (_U32(wd) for wd in words)

    def next_u32(self) -> int:
        """Advance one step and return the next 32-bit output."""
        with np.errstate(over="ignore"):
            t = self._x ^ _U32((int(self._x) << 11) & 0xFFFFFFFF)
            self._x, self._y, self._z = self._y, self._z, self._w
            self._w = self._w ^ (self._w >> _U32(19)) ^ t ^ (t >> _U32(8))
        return int(self._w)

    def next_float(self) -> float:
        """Next value uniform on [0, 1)."""
        return self.next_u32() / 4294967296.0


def _splitmix64_scalar(seed: int) -> int:
    return (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF


def _splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output)."""
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    next_state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return next_state, z


def _index_offset(seed: int, shift: int = 0) -> np.uint64:
    """What the SplitMix mix adds to every index shifted by ``shift``:
    ``(seed + 1) * PHI + shift`` mod 2**64."""
    return _U64((int(seed) * _PHI + _PHI + shift) & _MASK64)


def _xorshift_into(
    out: np.ndarray,
    indices: np.ndarray,
    offset: np.uint64,
    z: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Stateless xorshift of ``indices + offset`` (mod 2**64), written to ``out``.

    A SplitMix64-style avalanche hashes each uint64 ``indices + offset``
    into a well-distributed uint32 state, never zero (zero is a xorshift
    fixed point); one xorshift32 round follows.  ``out`` and ``y`` are
    uint32 arrays of the indices' length and ``z``, ``t`` uint64 ones;
    ``z`` may be ``indices`` itself.  Nothing is allocated.
    """
    np.add(indices, offset, out=z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _U64(0x94D049BB133111EB)
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    np.copyto(out, z, casting="unsafe")  # the low 32 bits
    if not out.all():
        out[out == 0] = _U32(0x9E3779B9)
    np.left_shift(out, _U32(13), out=y)
    out ^= y
    np.right_shift(out, _U32(17), out=y)
    out ^= y
    np.left_shift(out, _U32(5), out=y)
    out ^= y
    return out


def xorshift_at(seed: int, indices: np.ndarray) -> np.ndarray:
    """Stateless xorshift: 32-bit outputs for each (seed, index) pair.

    ``xorshift_at(seed, i)`` is a pure function — calling it twice with the
    same arguments returns identical bits.  This models the hardware
    regeneration unit: a weight's initial value depends only on the global
    seed and the weight's index, never on stored state.

    Parameters
    ----------
    seed:
        Global integer seed.
    indices:
        Integer array of weight indices (any shape).

    Returns
    -------
    ``uint32`` array, same shape as ``indices``.
    """
    indices = np.asarray(indices)
    z = indices.astype(_U64).reshape(-1)
    out = np.empty(z.size, dtype=_U32)
    _xorshift_into(out, z, _index_offset(seed), z, np.empty_like(z), np.empty_like(out))
    return out.reshape(indices.shape)


def uniform_at(seed: int, indices: np.ndarray) -> np.ndarray:
    """Stateless uniform [0, 1) floats for each (seed, index) pair."""
    return xorshift_at(seed, indices).astype(np.float64) / 4294967296.0


def normal_at(
    seed: int,
    indices: np.ndarray,
    std: float = 1.0,
    mean: float = 0.0,
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """Stateless N(mean, std**2) values for each (seed, index) pair.

    Uses the Box–Muller transform over two decorrelated stateless uniform
    draws (index streams offset by a large constant), matching the paper's
    "postprocessed to fit a scaled normal distribution".  Deterministic:
    ``normal_at(s, i)`` never changes between calls, so untracked weights can
    be regenerated exactly at every access.  The work runs in chunks of
    ``_CHUNK`` indices over reused scratch, so the call's memory beyond its
    output is bounded; the result does not depend on the chunking.

    Parameters
    ----------
    seed:
        Global integer seed.
    indices:
        Integer array of weight indices (any shape).
    std, mean:
        Scale and shift of the target normal distribution.
    dtype:
        Output dtype (float32 by default, matching training precision).
    """
    indices = np.asarray(indices, dtype=np.int64)
    flat = indices.reshape(-1).view(_U64)
    out = np.empty(flat.size, dtype=dtype)
    n = min(flat.size, _CHUNK)
    z, t = np.empty(n, dtype=_U64), np.empty(n, dtype=_U64)
    x, y = np.empty(n, dtype=_U32), np.empty(n, dtype=_U32)
    r, a = np.empty(n), np.empty(n)
    radius_offset = _index_offset(seed)
    # The angle's stream: another seed, indices shifted by a large constant.
    angle_offset = _index_offset(seed ^ 0x5DEECE66D, shift=0x9E3779B9)
    # The steps round exactly as ``mean + std * (sqrt(-2 ln u1) * cos(2 pi u2))``
    # does in float64; fusing or reordering them would change W(0)'s bits,
    # and with them every checkpoint's untracked weights.
    for lo in range(0, flat.size, _CHUNK):
        idx = flat[lo:lo + _CHUNK]
        if idx.size < n:  # the last, shorter chunk
            z, t, x, y, r, a = (buf[: idx.size] for buf in (z, t, x, y, r, a))
        _xorshift_into(x, idx, radius_offset, z, t, y)
        np.multiply(x, 1.0 / 4294967296.0, out=r)  # u1, uniform on [0, 1)
        # Guard log(0): map u1 == 0 to the smallest representable positive step.
        np.maximum(r, 1.0 / 4294967296.0, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        _xorshift_into(x, idx, angle_offset, z, t, y)
        np.multiply(x, 1.0 / 4294967296.0, out=a)  # u2
        a *= 2.0 * np.pi
        np.cos(a, out=a)
        r *= a
        r *= std
        r += mean
        out[lo:lo + idx.size] = r
    return out.reshape(indices.shape)
