"""``%.6g`` CSV text at numpy speed.

``write_csv(path, a)`` writes the bytes ``np.savetxt(path, a, delimiter=",",
fmt="%.6g")`` writes for a 2-D float array; ``csv_text(a)`` returns them as
text. It formats a block of values at a time by array arithmetic instead of
one ``%`` per value.

The digits: a finite nonzero |x| whose decimal exponent e has an exact
double 10**(5 - e) (|5 - e| <= 22) is scaled by it, in one correctly
rounded multiply or divide, to s in [1e5, 1e6). s is within ~1.1e-10 of the
exact value, so rounding s to an integer gives the six correctly rounded
significant digits unless s's fraction is within 1e-6 of one half. Those
possible ties, the non-finite values and the exponents outside that range
fall back to Python's ``%``, one call per block; zeros are written
directly.

The text: each value's record is 16 bytes, two little-endian uint64 words
built with shifts from its six ASCII digits (1000-entry tables, three digits
a word): a ``-`` and a ``0.000`` prefix (1e-4 <= |x| < 1), a ``.`` after
the integer digits, trailing zeros cut off, and an ``e±XX`` suffix in
exponent form (|x| < 1e-4 or >= 1e6 after rounding). The delimiter goes
after the text, and one boolean mask keeps text and delimiter of every
record.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_text", "write_csv"]

_BLOCK_VALUES = 16384       # values formatted at a time; bounds the temporaries
_MIN_KERNEL_VALUES = 512    # below this, numpy's per-call cost exceeds `%`'s
_MAX_POW = 22               # 10**k is an exact double for |k| <= 22
_X_LO, _X_HI = -20, 32      # table range of the rounded decimal exponent X

_U64 = np.uint64
_WORD_BITS = _U64(64)


def _word(text: str) -> int:
    """ASCII text as a little-endian integer: first character lowest."""
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Lookup tables, built on first use (not at import: the CLI starts
    faster). Per X and sign (row ``2 * (X - _X_LO) + negative``): where
    the ``.`` goes into the six digits, the text before them and the suffix.
    Per such row and count of trailing zeros of the digits (``6 * row + zeros``):
    the digits kept, where the suffix starts and the text's length."""
    point, low, dot, prefix, prefix_bits, suffix = [], [], [], [], [], []
    keep, suffix_bits, length = [], [], []
    for x in range(_X_LO, _X_HI):
        for neg in (0, 1):
            fixed = -4 <= x < 6
            # digits before the point; 6 below 1, where the prefix holds the
            # point and `keep` cuts the one put after the digits
            p = (6 if x < 0 else x + 1) if fixed else 1
            pre = "-" * neg + ("0." + "0" * (-x - 1) if fixed and x < 0 else "")
            suf = "" if fixed else f"e{x:+03d}"
            point.append(8 * p)
            low.append((1 << (8 * p)) - 1)
            dot.append(ord(".") << (8 * p))
            prefix.append(_word(pre))
            prefix_bits.append(8 * len(pre))
            suffix.append(_word(suf))
            for zeros in range(6):
                if fixed and x < 0:              # every digit is a fraction digit
                    kept = 6 - zeros
                else:
                    frac = max(0, 6 - p - zeros)
                    kept = p + (1 + frac if frac else 0)
                keep.append((1 << (8 * kept)) - 1)
                suffix_bits.append(8 * (len(pre) + kept))
                length.append(len(pre) + kept + len(suf))
    k = range(-_MAX_POW, _MAX_POW + 1)
    return {
        "digits3": np.array([_word(f"{v:03d}") for v in range(1000)], dtype=_U64),
        "zeros3": np.array([3] + [len(s) - len(s.rstrip("0"))
                                  for s in (f"{v:03d}" for v in range(1, 1000))]),
        "mul": np.array([float(10 ** max(i, 0)) for i in k]),
        "div": np.array([float(10 ** max(-i, 0)) for i in k]),
        "point": np.array(point, dtype=_U64), "low": np.array(low, dtype=_U64),
        "dot": np.array(dot, dtype=_U64),
        "prefix": np.array(prefix, dtype=_U64),
        "prefix_bits": np.array(prefix_bits, dtype=_U64),
        "suffix": np.array(suffix, dtype=_U64),
        "keep": np.array(keep, dtype=_U64),
        "suffix_bits": np.array(suffix_bits, dtype=_U64),
        "length": np.array(length),
        # a record's bytes before and at its delimiter, by text length
        "masks": np.arange(16) <= np.arange(16)[:, None],
    }


def _digits(ax: np.ndarray):
    """Six correctly rounded significant digits m (100000..999999) and the
    decimal exponent X of each |x|, and a mask of the values the arithmetic
    decides (false for 0, inf, nan, far exponents and possible ties)."""
    t = _tables()
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 5.0 - np.floor(np.log10(ax))
    ok = np.abs(k) <= _MAX_POW
    bad = ~ok
    np.copyto(k, 5.0, where=bad)
    a = ax.copy()
    np.copyto(a, 1.0, where=bad)
    k = (k + _MAX_POW).astype(np.intp)
    s = a * np.take(t["mul"], k) / np.take(t["div"], k)
    off = np.flatnonzero((s < 1e5) | (s >= 1e6))   # log10 missed the decade by one
    if off.size:
        kf = k[off] + np.where(s[off] < 1e5, 1, -1)
        inside = (kf >= 0) & (kf <= 2 * _MAX_POW)
        ok[off[~inside]] = False
        kf[~inside] = _MAX_POW + 5
        k[off] = kf
        s[off] = np.where(inside, a[off], 1.0) * t["mul"][kf] / t["div"][kf]
    whole = np.floor(s)
    frac = s - whole
    ok &= np.abs(frac - 0.5) >= 1e-6               # else a possible tie: `%` decides
    m = whole.astype(np.intp)
    m += frac > 0.5
    carry = m == 1_000_000
    m[carry] = 100_000
    x = (_MAX_POW + 5) - k
    x += carry
    return m, x, ok


def _records(m: np.ndarray, x: np.ndarray, neg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The ``%.6g`` text of (-1)**neg * m * 10**(x - 5) into the (n, 2) uint64
    records ``out``; returns the text lengths."""
    t = _tables()
    hi3 = m // 1000
    lo3 = m - 1000 * hi3
    d = np.take(t["digits3"], hi3)
    d |= np.take(t["digits3"], lo3) << _U64(24)
    zeros = np.take(t["zeros3"], lo3)
    zeros += (lo3 == 0) * np.take(t["zeros3"], hi3)
    row = 2 * (x - _X_LO) + neg
    p = np.take(t["point"], row)
    core = d & np.take(t["low"], row)
    core |= np.take(t["dot"], row)
    core |= (d >> p) << (p + _U64(8))
    j = 6 * row + zeros
    core &= np.take(t["keep"], j)
    # prefix, core and suffix; no row has both a ``0.`` prefix and a suffix,
    # and what is shifted past bit 64 spills into the second word
    s1 = np.take(t["prefix_bits"], row)
    s2 = np.take(t["suffix_bits"], j)
    suffix = np.take(t["suffix"], row)
    lo = np.take(t["prefix"], row)
    lo |= core << s1
    lo |= suffix << s2
    out[:, 0] = lo
    hi = core >> (_WORD_BITS - s1)
    hi |= suffix >> (_WORD_BITS - s2)
    out[:, 1] = hi
    return np.take(t["length"], j)


def _block_text(x: np.ndarray, delims: np.ndarray) -> np.ndarray:
    """The CSV bytes of the float64 values x, each followed by its delimiter."""
    n = len(x)
    neg = np.signbit(x)
    ax = np.abs(x)
    m, e, ok = _digits(ax)
    records = np.empty((n, 2), dtype=_U64)
    length = _records(m, e, neg, records)
    rest = np.flatnonzero(~ok)
    if rest.size:
        is_zero = ax[rest] == 0
        zero, other = rest[is_zero], rest[~is_zero]
        records[zero] = 0
        records[zero, 0] = np.where(neg[zero], _word("-0"), _word("0"))
        length[zero] = 1 + neg[zero]
        if other.size:
            text = ("%-16.6g" * other.size) % tuple(x[other].tolist())
            raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 16)
            pad = raw == ord(" ")
            records[other] = np.where(pad, 0, raw).view(_U64)
            length[other] = 16 - pad.sum(axis=1)
    flat = records.view(np.uint8).reshape(n, 16)
    flat.reshape(-1)[np.arange(0, 16 * n, 16) + length] = delims
    return flat[np.take(_tables()["masks"], length, axis=0)]


def _chunks(array: np.ndarray):
    """The bytes ``np.savetxt(..., delimiter=",", fmt="%.6g")`` writes for a
    2-D float array, a block of rows at a time."""
    n_rows, n_cols = array.shape
    if array.size < _MIN_KERNEL_VALUES:
        line = ",".join(["%.6g"] * n_cols) + "\n"
        yield (line * n_rows % tuple(array.ravel().tolist())).encode("ascii")
        return
    rows = max(1, _BLOCK_VALUES // n_cols)
    delims = np.full((rows, n_cols), ord(","), dtype=np.uint8)
    delims[:, -1] = ord("\n")
    delims = delims.reshape(-1)
    for start in range(0, n_rows, rows):
        block = np.asarray(array[start:start + rows], dtype=np.float64).reshape(-1)
        yield _block_text(block, delims[:len(block)])


def write_csv(path, array: np.ndarray) -> None:
    """A 2-D float array as the bytes ``np.savetxt(path, array, delimiter=",",
    fmt="%.6g")`` writes."""
    with open(path, "wb") as fh:
        for chunk in _chunks(array):
            fh.write(chunk)


def csv_text(array: np.ndarray) -> str:
    """The text :func:`write_csv` writes, as a string."""
    return b"".join(_chunks(array)).decode("ascii")
