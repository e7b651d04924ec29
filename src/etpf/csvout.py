"""CSV numbers in ``'%.17g' %`` form, rendered with numpy.

For a finite ``v`` with ``1e-98 <= |v| < 1e98`` and ``d = floor(log10 |v|)``,
``y = |v| 10^(16-d)`` is formed in doubles as ``hi + lo``: ``10^(16-d)`` is held as
``ph + pl`` (``pl = 0`` up to ``10^22``), Dekker's product gives ``|v| ph = hi + e``
exactly and ``lo = e + |v| pl``, so ``hi + lo`` is within ``1e-14`` of ``y``.  The
nearest integer to ``y`` is certified as the correctly rounded 17 significant digits
when the fraction of ``y`` is more than ``_TIE`` from 1/2 and the integer has 17
digits.  Every other finite non-zero value takes ``'%.17g' %`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["render", "write_csv"]

_ROWS = 1024  # rows rendered at a time, which bounds the buffers and the peak memory
_W = 24  # bytes per element: separator, sign, then up to 22 for a certified text
_TIE = 2.0**-20  # far beyond the error of hi + lo
_SPECIALS = np.frombuffer(b",0\0\0\0\0\0\0,-0\0\0\0\0\0,inf\0\0\0\0,-inf\0\0\0,nan\0\0\0\0", np.uint64)


@functools.cache
def _tables():
    """``10^(16-d)`` as ``ph``, its halves and ``pl``, and the ``e`` texts, by ``d + 99``; then
    words over an element's bytes, byte ``3 + s`` holding slot ``s`` before the point goes in
    (slots 0-3: the zeros of a leading "0.000"; 4-20: the digits): ``heads[5 t + s]``, bytes 0-7
    for top digit ``t`` and "0" in slots ``s``-3; ``quads[g]``, the 4 digits of ``g`` (from 10000
    on, trailing zeros as 0); ``upto[q]``, slots 0 to ``q``; ``zeros[q]``, "0" in slots 4 to ``q``."""
    ten = [(10 ** max(j, 0), 10 ** max(-j, 0)) for j in range(115, -83, -1)]  # 10^(16-d) as n / m
    ph = np.array([n / m for n, m in ten])
    pl = [(n * q - p * m) / (m * q) for (n, m), (p, q) in zip(ten, map(float.as_integer_ratio, ph))]
    phh = ph * 134217729.0 - (ph * 134217729.0 - ph)  # Dekker's split: halves of 26 bits, exact products
    slot = np.arange(_W) - 3
    t, s, q = np.arange(10)[:, None, None], np.arange(5)[:, None], np.arange(21)[:, None]
    heads = np.where(slot == 4, t + ord("0"), ((slot >= s) & (slot < 4)) * ord("0"))[:, :, :8]
    g = np.arange(10000, dtype=np.uint16)  # small types keep the peak memory of the build small
    quads = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")).astype(np.uint8)
    tail = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    word = lambda b, dtype: np.ascontiguousarray(b, np.uint8).view(dtype).reshape(len(b), -1)
    return (np.array([ph, phh, ph - phh, pl]), word(heads.reshape(-1, 8), np.uint64)[:, 0],
            word(np.concatenate([quads, np.where(tail, 0, quads)]), np.uint32)[:, 0],
            word(((slot >= 0) & (slot <= q)) * 255, np.uint64),
            word(((slot >= 4) & (slot <= q)) * ord("0"), np.uint64),
            np.frombuffer(b"".join(b"e%+03d" % d for d in range(-99, 99)), np.uint32))


def _certify(a: np.ndarray):
    """Which ``a`` (from 1e-98 to below 1e98) have certified digits, their ``d`` and digits ``M``."""
    d = np.floor(np.log10(a)).astype(np.intp)
    ph, phh, phl, pl = _tables()[0].take(d + 99, axis=1)
    ah = a * 134217729.0 - (a * 134217729.0 - a)
    al = a - ah
    hi = a * ph
    lo = al * phl - (((hi - ah * phh) - al * phh) - ah * phl) + a * pl
    r = np.floor(lo)
    lo -= r  # the fraction of y, as hi is an integer once y >= 2^53
    M = hi.astype(np.int64) + r.astype(np.int64)
    ok = (M >= 10**16) & (np.abs(lo - 0.5) > _TIE)
    M += lo > 0.5
    ok &= M < 10**17
    idx = np.flatnonzero(ok)
    return idx, d.take(idx), M.take(idx)


def _fields(d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The bytes of each certified element but its separator and sign, as ``(len(d), _W)``."""
    heads, quads, upto, zeros, exps = _tables()[1:]
    digits = np.zeros((d.size + 1, _W // 4), np.uint32)  # a spare row: the point test reads past a field
    off = np.full(d.size, 10000)  # to the quads without trailing zeros, while every later group is zero
    for j in range(5, 1, -1):
        rest = M // 10000
        r = M - rest * 10000
        digits[:-1, j] = quads.take(r + off)
        off *= r == 0
        M = rest
    fixed = (d >= -4) & (d <= 16)
    words = digits.view(np.uint64)[:-1]
    words[:, 0] = heads.take(5 * M + np.where(fixed, 4 + np.minimum(d, 0), 4))
    sci = np.flatnonzero(~fixed)  # the digits move down a word to slots 0-16, the exponent follows
    digits[sci, :-1] = digits[sci, 1:]
    digits[sci, -1] = exps.take(d.take(sci) + 99)
    q = np.where(fixed, 4 + d, 0)  # the slot the point follows, if a digit does
    lead = upto.take(q, axis=0) & words
    words ^= lead  # leaves the slots after q; those up to q, with the integer zeros, move down a byte:
    ints = np.flatnonzero(q > 4)
    lead[ints] |= zeros.take(q.take(ints), axis=0)
    flat = digits.view(np.uint8).reshape(-1)
    flat[: -_W - 1] |= lead.view(np.uint8).reshape(-1)[1:]
    at = np.arange(3, d.size * _W, _W) + q
    flat[at[flat.take(at + 1) != 0]] = ord(".")
    return digits.view(np.uint8)[:-1]


def _render_block(v: np.ndarray, ncols: int) -> np.ndarray:
    """The slots of the row-major values ``v``, ``ncols`` to a row: the rows, less zero bytes and spaces."""
    a = np.abs(v)
    nz = np.flatnonzero((a >= 1e-98) & (a < 1e98))
    idx, d, M = _certify(a.take(nz))
    nz = nz.take(idx)
    rest = np.flatnonzero(np.bincount(nz, minlength=v.size) == 0)
    r = v.take(rest)
    special = ~((r != 0) & (np.abs(r) < np.inf))  # zeros, infinities and NaN; the rest takes '%'
    fb, r, rest = rest[~special], r[special], rest[special]
    text = ((",%-24.17g" * fb.size) % tuple(v.take(fb).tolist())).encode()
    width = _W if text[24::25].count(b" ") == fb.size else _W + 8  # a 24-byte text needs a wider slot
    grid = np.zeros((v.size, width), np.uint8)
    fields = np.pad(_fields(d, M), ((0, 0), (0, width - _W))) if width > _W else _fields(d, M)
    fields[:, 0] = ord(",")
    fields[:, 1] = np.signbit(v.take(nz)) * np.uint8(ord("-"))
    np.put(grid.view(f"V{width}")[:, 0], nz, fields.view(f"V{width}")[:, 0])
    nan = r != r
    grid.view(np.uint64)[rest, 0] = _SPECIALS.take((r != 0) * np.where(nan, 4, 2) + (np.signbit(r) > nan))
    grid[fb, :25] = np.frombuffer(text, np.uint8).reshape(fb.size, 25)[:, :width]
    grid[::ncols, 0] = ord("\n")  # each element leads with its separator; a row ends at the next one's
    grid[0, 0] = 0
    return grid


def _columns(cols) -> list:
    cols = [np.asarray(c, dtype=float) for c in cols]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns of unequal lengths")
    return cols


def _blocks(cols):
    for i in range(0, len(cols[0]) if cols else 0, _ROWS):
        block = np.column_stack([c[i : i + _ROWS] for c in cols])
        yield _render_block(block.ravel(), block.shape[1]).tobytes().translate(None, b"\0 ")
        yield b"\n"


def render(*cols) -> bytes:
    """The rows of ``np.column_stack(cols)``, each value as ``'%.17g' %`` gives it."""
    return b"".join(_blocks(_columns(cols)))


def write_csv(path, header: list, *cols) -> None:
    """The header line, then ``render(*cols)``, written a block at a time."""
    cols = _columns(cols)  # before the file is opened: a bad call leaves it as it was
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_blocks(cols))
