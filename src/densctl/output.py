"""Run artifacts: deterministic CSV/JSON writers and `write_run`, which
writes one run's artifacts and its manifest in one call.

CSV files carry a header row and floats written exactly as `%.17g`
writes them, so they round-trip losslessly and are byte-identical
across reruns with the same inputs. Timestamps, which vary between
identical reruns, live only in manifest.json.

`write_csv` computes those bytes in bulk, with numpy, a block of about
CSV_BLOCK_VALUES values at a time. For each value y it finds the decade
E exactly, by comparing |y| with the smallest double >= 10^E; scales
|y| by 10^(16-E), correctly rounded to `np.longdouble`; and takes the
17-digit integer nearest the product. The product's error bound, from
`np.finfo(np.longdouble)`, certifies that rounding unless the product
lies within the bound of a tie. The digits are then laid out by `%g`'s
rules through lookup tables, built on first use. Values without a
certificate (about 1 in 100 where long double is the x87 80-bit
format, every value where it is no wider than double), nan and +-inf
are written by `format_float`, which defines the bytes.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__ as VERSION


CSV_BLOCK_VALUES = 4096

# Decades covered by the tables: every double's decade E lies in
# [-324, 308], and its scale 10^(16 - E) in [10^-292, 10^340].
_E_MIN, _E_MAX = -324, 340
# Each value is laid out in a 32-byte slot of four little-endian 64-bit
# words, from which the NUL bytes are then deleted:
#   word 0     sign, "0.000" (as much as 1e-4 <= |x| < 1 needs), NUL,
#              the first digit;
#   words 1-2  the other 16 digits, with the point among them;
#   word 3     the 17th byte of those, "e+XX" or "e+XXX", NUL, separator.
_WORD = np.dtype("<u8")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def _words(b: np.ndarray) -> np.ndarray:
    """Rows of 8k bytes as rows of k words."""
    return np.ascontiguousarray(b, np.uint8).view(_WORD).astype(np.uint64)


class _Tables(NamedTuple):
    """The formatter's tables. Per decade E (row E - _E_MIN):
    `pow10` (long double) holds 10^E correctly rounded and `decade` the
    smallest double >= 10^E; `slot` a slot's words with its lead and
    exponent filled in; `whole` the index of the last of the 17 digits
    before the point (0 outside the fixed form, and for 0.000ddd);
    `point` the tail byte the point goes before (16: none). `margin`
    bounds the relative error of y * pow10. `digits4` holds 0000..9999
    as 4 ASCII bytes, and `end[k]` the index among the 17 digits of
    the last nonzero digit of group k, the digits 4k+1..4k+4 (0: none).
    Per digit index K (row K), `keep` masks the tail bytes up to digit
    K. Per point byte p (row p, or 17 + p to write the point), `low`
    masks the tail bytes below p, `high` the bytes above it, and `dot`
    holds "." at p.
    """
    pow10: np.ndarray
    decade: np.ndarray
    margin: float
    slot: np.ndarray
    whole: np.ndarray
    point: np.ndarray
    digits4: np.ndarray
    end: np.ndarray
    keep: np.ndarray
    low: np.ndarray
    high: np.ndarray
    dot: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The formatter's lookup tables, built on first use."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    # The C library's strtold rounds correctly; a test checks each entry
    # against exact rational arithmetic.
    pow10 = np.array([f"1e{k}" for k in e]).astype(np.longdouble)
    with np.errstate(over="ignore"):
        near = pow10.astype(np.float64)
    # A double next to 10^E lies on the side of it that the finer pow10
    # shows, unless the two are equal and pow10 is inexact; then exact
    # integer arithmetic decides.
    up = near.astype(np.longdouble) < pow10
    for i in np.flatnonzero((near == pow10) & ((e < 0) | (e > 27))):
        n, d = float(near[i]).as_integer_ratio()
        k = int(e[i])
        up[i] = n < 10 ** k * d if k >= 0 else n * 10 ** -k < d
    # y * pow10[k] is rounded twice (the table entry, then the product),
    # by at most eps/2 each; the extra factor covers the second-order
    # terms and the rounding of the check itself in float64.
    eps = float(np.finfo(np.longdouble).eps)

    col = e[:, None]
    slot = np.zeros((e.size, 32), np.uint8)
    slot[:, 1:6] = np.where((col <= [-1, -1, -2, -3, -4]) & (col >= -4),
                            np.frombuffer(b"0.000", np.uint8), 0)
    a = np.abs(e)
    exp = np.stack([np.full_like(e, ord("e")),
                    np.where(e < 0, ord("-"), ord("+")),
                    np.where(a >= 100, a // 100 + ord("0"), 0),
                    a // 10 % 10 + ord("0"), a % 10 + ord("0")], axis=1)
    slot[:, 25:30] = np.where((col < -4) | (col >= 17), exp, 0)
    # %g's fixed form for -4 <= E < 17: the first digit and E more
    # before the point, or "0.", -E-1 zeros and all 17 after it.
    whole = np.where((e >= 0) & (e < 17), e, 0)

    # Narrow integer types keep the tables' transient memory small.
    i4 = np.arange(10000, dtype=np.int16)[:, None]
    d4 = (i4 // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    end4 = (4 - np.argmax(d4[:, ::-1] != 0, axis=1)).astype(np.int8)
    end4[0] = 0
    end = np.where(end4 > 0, end4 + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0)
    chars = np.zeros((10000, 8), np.uint8)
    chars[:, :4] = d4 + ord("0")

    j = np.arange(24)
    p = np.arange(34)[:, None] % 17
    ff = np.uint8(255)
    return _Tables(
        pow10=pow10, decade=np.where(up, np.nextafter(near, np.inf), near),
        margin=eps * (1 + 2.0 ** -40),
        slot=_words(slot).astype(_WORD), whole=whole,
        point=np.where((e >= -4) & (e < 0), 16, whole),
        digits4=_words(chars)[:, 0], end=end,
        keep=_words(np.where(j[:16] < np.arange(17)[:, None], ff, 0)).T.copy(),
        low=_words(np.where((j < p) & (j < 16), ff, 0)).T.copy(),
        high=_words(np.where(j > p, ff, 0)).T.copy(),
        dot=_words(np.where((j == p) & (np.arange(34)[:, None] >= 17),
                            ord("."), 0)).T.copy())


def _digits(x: np.ndarray, tab: _Tables):
    """The 17 significant digits of each x as %.17g rounds them: the
    row of its decade in the tables, its first digit, the other 16 as
    ASCII in two words, the index of its last nonzero digit, and
    whether format_float must write x instead."""
    y = np.abs(x)
    special = ~np.isfinite(y)
    zero = y == 0
    np.copyto(y, 1.0, where=special | zero)   # formatted as 1, then patched
    # The decade E of y: 10^E <= y < 10^(E+1), exactly.
    E = np.floor(np.log10(y)).astype(np.intp)
    E -= y < tab.decade[E - _E_MIN]
    E += y >= tab.decade[E + 1 - _E_MIN]
    # D = round(y 10^(16-E)) in [10^16, 10^17], certified unless the
    # product lies within its error bound of a tie.
    z = tab.pow10[16 - E - _E_MIN]
    z *= y
    t = z.astype(np.uint64)
    frac = (z - t).astype(np.float64)
    certified = np.abs(frac - 0.5) > z.astype(np.float64) * tab.margin
    D = t + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    D[zero] = 0
    # The first digit, then four groups of four through the tables.
    d0 = D // 10 ** 16
    hi = D - d0 * 10 ** 16
    lo = hi % 10 ** 8
    hi //= 10 ** 8
    g = [hi // 10000, hi % 10000, lo // 10000, lo % 10000]
    w = [tab.digits4.take(gk) for gk in g]
    last = np.maximum(np.maximum(tab.end[0].take(g[0]), tab.end[1].take(g[1])),
                      np.maximum(tab.end[2].take(g[2]), tab.end[3].take(g[3])))
    return (E - _E_MIN + carry, d0, [w[0] | w[1] << 32, w[2] | w[3] << 32],
            last, special | ~certified)


def _format_rows(block: np.ndarray, tab: _Tables) -> bytes:
    """The CSV bytes of the float64 rows `block`, exactly as `%.17g`."""
    rows, ncols = block.shape
    x = block.reshape(-1)
    Ei, d0, tail, last, fallback = _digits(x, tab)
    # Trailing zeros after the point go. The point goes before tail
    # byte p, which with the bytes after it moves up one; rows 17 + p of
    # the tables write the point itself, when a digit follows it.
    K = np.maximum(last, tab.whole.take(Ei))
    tail[0] &= tab.keep[0].take(K)
    tail[1] &= tab.keep[1].take(K)
    p = tab.point.take(Ei)
    p += 17 * (last > p)
    up = [tail[0] << 8, tail[1] << 8 | tail[0] >> 56, tail[1] >> 56]
    out = tab.slot.take(Ei, axis=0)
    out[:, 0] |= np.signbit(x) * np.uint64(ord("-")) | (d0 + ord("0")) << 56
    for k in range(3):
        out[:, k + 1] |= up[k] & tab.high[k].take(p) | tab.dot[k].take(p)
        if k < 2:
            out[:, k + 1] |= tail[k] & tab.low[k].take(p)

    raw = out.view(np.uint8)
    idx = np.flatnonzero(fallback)
    if idx.size:
        text = np.array([format_float(v) for v in x[idx].tolist()], "S24")
        raw[idx, :24] = text.view(np.uint8).reshape(-1, 24)
        raw[idx, 24:31] = 0
    sep = raw[:, 31].reshape(rows, ncols)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    return raw.tobytes().translate(None, b"\0")


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns under a header, every value as format_float would.

    The columns are stacked into one float64 table and streamed to the
    file a block of whole rows, about CSV_BLOCK_VALUES values, at a
    time, so working memory beyond the table does not grow with the row
    count. Each block's digits are computed in bulk and certified as
    the module docstring describes; format_float writes the values the
    certificate does not cover, and nan and +-inf.
    """
    if len(header) != len(columns):
        raise ValueError("header and column count differ")
    cols = [np.asarray(c).reshape(-1) for c in columns]
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise ValueError("columns differ in length")
    table = np.column_stack(cols).astype(float, copy=False)
    step = max(1, CSV_BLOCK_VALUES // len(cols))
    tab = _tables()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for a in range(0, n, step):
            fh.write(_format_rows(table[a:a + step], tab))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")


def timestamp() -> str:
    """The current UTC time as the manifest writes it."""
    return datetime.now(timezone.utc).isoformat()


def write_run(base_dir: str, command: str, config_hash: str, options: dict,
              seed: int | None, started: str, files: dict) -> str:
    """Write one run's artifacts and its manifest; return the directory.

    `files` maps each file name to its contents: a `.csv` name to a
    dict of named columns, in column order, any other name to a JSON
    object. The directory is <command>-<first 12 hex of a hash over the
    config hash and `options`>, where `options` holds every resolved
    option that changes the artifacts, so identical runs land in the
    same place and reruns replace their own previous artifacts. Every
    other regular file there, such as a previous run's leftovers, is
    removed, so the directory holds exactly what the manifest lists.
    The manifest's `started` is the caller's, and `finished` is stamped
    after the last artifact.
    """
    key = json.dumps({"config": config_hash, **options}, sort_keys=True)
    run_dir = os.path.join(
        base_dir, f"{command}-{sha256_bytes(key.encode())[:12]}")
    os.makedirs(run_dir, exist_ok=True)
    for name, contents in files.items():
        path = os.path.join(run_dir, name)
        if name.endswith(".csv"):
            write_csv(path, list(contents), list(contents.values()))
        else:
            write_json(path, contents)
    keep = set(files) | {"manifest.json"}
    for entry in os.scandir(run_dir):
        if entry.is_file(follow_symlinks=False) and entry.name not in keep:
            os.remove(entry.path)
    write_json(os.path.join(run_dir, "manifest.json"), {
        "command": command,
        "config_hash": config_hash,
        "seed": seed,
        "version": VERSION,
        "started": started,
        "finished": timestamp(),
        "outputs": sorted(files),
    })
    return run_dir
