"""NBLB1 files of named float64 arrays: parameter checkpoints and heightfields.

Little-endian binary layout:

    magic  b"NBLB1"
    per array (a "parameter" in messages), repeated to EOF:
        u32   name length in bytes
        ...   name, utf-8
        u32   rank
        u32 * rank   extents
        f64 * prod(extents)   payload, row-major

Round-trips are bit-exact; tests compare raw float bits.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC"]

MAGIC = b"NBLB1"


def save_checkpoint(path, params: dict[str, Tensor | np.ndarray]) -> None:
    """Write ``params`` to ``path`` in the layout above.

    Every parameter is checked before the file is opened: a non-finite
    value, which :func:`load_checkpoint` would refuse, raises
    ``ValueError`` naming the path and the parameter and leaves any file
    already at ``path`` as it was.
    """
    path = Path(path)
    # note: ascontiguousarray would promote 0-d to 1-d and break rank
    arrays = {name: np.asarray(p.data if isinstance(p, Tensor) else p, dtype="<f8", order="C")
              for name, p in params.items()}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: parameter {name!r} has a non-finite value")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint into ``{name: float64 array}``.

    Raises ``ValueError`` naming the path on a bad magic, on a file that
    ends inside a record (naming the parameter being read, or its
    position when the cut falls inside its name), on a name that is not
    UTF-8, on a repeated name and on a non-finite value (naming the
    parameter).
    """
    path = Path(path)
    blob = memoryview(path.read_bytes())
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an NBLB1 file (bad magic)")
    off = len(MAGIC)
    out: dict[str, np.ndarray] = {}

    def take(nbytes: int, what: str) -> memoryview:
        nonlocal off
        if off + nbytes > len(blob):
            raise ValueError(f"{path}: truncated NBLB1 file, the file ends inside the {what} of {label}")
        chunk = blob[off : off + nbytes]
        off += nbytes
        return chunk

    while off < len(blob):
        label = f"parameter #{len(out)}"
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = bytes(take(nlen, "name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: the name of {label} is not UTF-8") from None
        label = f"parameter {name!r}"
        if name in out:
            raise ValueError(f"{path}: duplicate {label}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "shape"))
        payload = take(8 * math.prod(shape), "payload")
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: {label} has a non-finite value")
        out[name] = arr
    return out


def load_into(path, params: dict[str, Tensor]) -> None:
    """Load a checkpoint into an existing named-parameter dict.

    Every name and shape is checked before any parameter is assigned, so
    a mismatch raises ``ValueError`` naming the path and leaves ``params``
    as they were.
    """
    stored = load_checkpoint(path)
    missing = set(params) - set(stored)
    extra = set(stored) - set(params)
    if missing or extra:
        raise ValueError(f"{path}: checkpoint mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, p in params.items():
        if stored[name].shape != p.data.shape:
            raise ValueError(f"{path}: shape mismatch for {name!r}: {stored[name].shape} vs {p.data.shape}")
    for name, p in params.items():
        p.data = stored[name]
