"""CSV numbers in ``'%.17g' %`` form, rendered with numpy.

For a finite ``v`` with ``1e-11 <= |v| < 1e17`` and ``d = floor(log10 |v|)``,
``y = |v| 10^(16-d)`` is formed in ``long double``, where ``10^k`` is exact for
``k <= 27``: one rounding, off by at most ``2^-8``.  The nearest integer to ``y`` is
certified as the correctly rounded 17 significant digits when the fraction of
``y`` is more than 0.005 from 1/2 and the integer has 17 digits.  Every other
element takes ``'%.17g' %`` itself, as does every element where ``long double``
has fewer than 64 bits, so the bytes are those of ``%`` on every host.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["render", "write_csv"]

_ROWS = 256  # rows rendered at a time, which bounds the buffers and the peak memory
_W = 32  # bytes per element: separator, sign, padding, slots 0-20 with a point after one, "e-dd"


@functools.cache
def _tables():
    """``10^0 .. 10^27`` in long double and whether it holds them exactly; then
    lookup words over the bytes of an element, whose byte ``3 + s`` holds slot
    ``s``: slots 0-3 are the zeros of a leading "0.000", slots 4-20 the digits.

    * ``heads[5 t + s]``: bytes 0-7 for top digit ``t``, with "0" in slots ``s``-3;
    * ``quads[g]``: the 4 digits of ``g``; ``quads[10000 + g]``, trailing zeros as 0;
    * ``zeros[k]``: "0" in the first ``k`` digit slots, the integer digits that stay;
    * ``upto[q]``: a mask of slots 0 to ``q``;
    * ``exps[d + 11]``: "e-11" to "e-05".
    """
    powers = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # exact products
    slot = np.arange(_W) - 3
    t, s = np.arange(10)[:, None, None], np.arange(5)[:, None]
    heads = np.where(slot == 4, t + ord("0"), ((slot >= s) & (slot < 4)) * ord("0"))[:, :, :8]
    g = np.arange(10000, dtype=np.uint16)  # small types keep the peak memory of the build small
    quads = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")).astype(np.uint8)
    tail = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    zeros = ((slot >= 4) & (slot < 4 + np.arange(18)[:, None])) * ord("0")
    upto = (slot <= np.arange(21)[:, None]) * 255
    quads = np.concatenate([quads, np.where(tail, 0, quads)])
    exps = np.frombuffer(b"".join(b"e%03d" % e for e in range(-11, -4)), np.uint8).reshape(-1, 4)
    word = lambda b, dtype: np.ascontiguousarray(b, np.uint8).view(dtype).reshape(len(b), -1)
    return (powers, np.finfo(np.longdouble).nmant >= 63,
            word(heads.reshape(-1, 8), np.uint64)[:, 0], word(quads, np.uint32)[:, 0],
            word(zeros, np.uint32), word(upto, np.uint64), word(exps, np.uint32)[:, 0])


def _certify(v: np.ndarray, fin: np.ndarray):
    """The indices of the elements of ``v`` whose 17 digits are certified, with
    their decimal exponents ``d`` and their digits as an integer ``M``."""
    d = np.floor(np.log10(np.abs(v), where=fin, out=np.zeros(v.size))).astype(np.intp)
    powers, exact = _tables()[:2]
    idx = np.flatnonzero(fin & (d >= -11) & (d <= 16) & exact)
    d = d[idx]
    y = np.abs(v[idx]).astype(np.longdouble) * powers[16 - d]
    M = y.astype(np.int64)
    f = (y - M).astype(float)  # exact for y >= 10^16, which has at most 10 fraction bits
    ok = (M >= 10**16) & (np.abs(f - 0.5) > 0.005)  # the right decade; no tie within 2^-8 of y
    M += f > 0.5
    ok &= M < 10**17
    return idx[ok], d[ok], M[ok]


def _fields(d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The bytes of each certified element but its separator and sign, as ``(len(d), 4)`` words."""
    heads, quads, zeros, upto, exps = _tables()[2:]
    digits = np.zeros((d.size, _W // 4), np.uint32)
    stripped = np.ones(d.size, np.intp)  # every later group is zero
    for j in range(5, 1, -1):
        rest = M // 10000
        r = M - rest * 10000
        digits[:, j] = quads[r + 10000 * stripped]
        stripped &= r == 0
        M = rest
    fixed = d >= -4
    digits.view(np.uint64)[:, 0] = heads[5 * M + np.where(fixed, 4 + np.minimum(d, 0), 4)]
    ints = np.flatnonzero(d > 0)
    digits[ints] |= np.take(zeros, d[ints] + 1, axis=0)
    q = np.where(fixed, 4 + d, 4)  # the slot the point follows, if a digit does
    field = np.take(upto, q, axis=0)
    field &= digits.view(np.uint64)
    digits.view(np.uint64)[:] ^= field  # leaves the slots after q, which move up a byte:
    flat = field.view(np.uint8).reshape(-1)
    flat[1:] |= digits.view(np.uint8).reshape(-1)[:-1]
    pt = np.flatnonzero(flat[np.arange(d.size) * _W + 5 + q])
    flat[pt * _W + 4 + q[pt]] = ord(".")
    sci = np.flatnonzero(~fixed)
    field.view(np.uint32)[sci, -1] = exps[d[sci] + 11]
    return field


def _render_block(v: np.ndarray, ncols: int) -> bytes:
    """The CSV rows of the row-major values ``v``, ``ncols`` to a row."""
    fin = np.isfinite(v) & (v != 0)
    idx, d, M = _certify(v, fin)
    grid = np.zeros((v.size, _W), np.uint8)
    grid.view(f"V{_W}")[idx] = _fields(d, M).view(f"V{_W}")
    for mask, text in ((v == 0, b"0\0\0\0"), (np.isinf(v), b"inf\0"), (v != v, b"nan\0")):
        grid.view(np.uint32)[np.flatnonzero(mask), 1] = np.frombuffer(text, np.uint32)
    grid[:, 1] = (np.signbit(v) & (v == v)) * np.uint8(ord("-"))
    fin[idx] = False  # the rest takes '%'
    fb = np.flatnonzero(fin)
    if fb.size:
        text = b"".join(("%.17g" % x).encode().ljust(24, b"\0") for x in v[fb].tolist())
        grid[fb, 1:25] = np.frombuffer(text, np.uint8).reshape(fb.size, 24)
    grid[:, 0] = ord(",")  # each element leads with its separator; a row ends at the next one's
    grid[::ncols, 0] = ord("\n")
    grid[0, 0] = 0
    return grid.tobytes().translate(None, b"\0") + b"\n"


def _blocks(cols):
    cols = np.asarray(cols, dtype=float)
    for i in range(0, len(cols), _ROWS):
        yield _render_block(cols[i : i + _ROWS].ravel(), cols.shape[1])


def render(cols) -> bytes:
    """The rows of the 2-D array ``cols``, each value as ``'%.17g' %`` gives it."""
    return b"".join(_blocks(cols))


def write_csv(path, header: list, cols) -> None:
    """The header line, then ``render(cols)``, written a block at a time."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_blocks(cols))
