"""Round interpreter — the oracle for "the rounds we charge compute
the answer".

Moves a payload through the access rounds :mod:`repro.ir.rounds`
enumerates.  Tests run it over every engine's program and hold the
sealed gather ``apply`` executes to its result, so the rounds the HMM
charges are proven to compute that gather.  Each thread holds one value
register:

* a read of a payload array (the kernel input ``a`` or a shared scratch
  array) loads the register;
* a write of a payload array (the kernel output ``b`` or a shared
  scratch array) stores it;
* reads of index arrays move no payload — their values are already the
  addresses of the kernel's later rounds.

Shared addresses are block-local: block ``k``'s address ``x`` is cell
``x`` of row ``k`` in a ``(blocks, block_size)`` view of the array.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.errors import SizeError
from repro.ir.ops import KernelOp, Pad, Slice
from repro.ir.program import KernelProgram
from repro.ir.rounds import PAYLOAD_ARRAYS, KernelRounds, StaticRound, op_kernel


def _view(
    array: np.ndarray, rnd: StaticRound
) -> tuple[np.ndarray, Any, tuple[int, ...]]:
    """``array`` as ``rnd`` addresses it: the view, the index
    expression, and the shape of the values it selects."""
    if rnd.space == "global":
        return array, rnd.addresses, rnd.addresses.shape
    assert rnd.block_size is not None
    addresses = rnd.addresses.reshape(-1, rnd.block_size)
    blocks = np.arange(addresses.shape[0])[:, None]
    return (
        array.reshape(-1, rnd.block_size), (blocks, addresses),
        addresses.shape,
    )


def run_kernel(kernel: KernelRounds, data: np.ndarray) -> np.ndarray:
    """Move ``data`` through one kernel's rounds; returns its ``b``."""
    out = np.empty_like(data)
    arrays = {"a": data, "b": out}
    register = data
    for rnd in kernel.rounds:
        if rnd.array not in PAYLOAD_ARRAYS:
            continue
        if rnd.array not in arrays:
            arrays[rnd.array] = np.empty(rnd.num_threads, dtype=data.dtype)
        array, index, shape = _view(arrays[rnd.array], rnd)
        if rnd.kind == "read":
            register = array[index].reshape(-1)
        else:
            array[index] = register.reshape(shape)
    return out


def run_op(op: KernelOp, data: np.ndarray) -> np.ndarray:
    """Apply one op to a flat payload through its access rounds."""
    if isinstance(op, Pad):
        out = np.zeros(op.padded_n, dtype=data.dtype)
        out[: op.n] = data
        return out
    if isinstance(op, Slice):
        return data[: op.n].copy()
    if data.shape[0] == 0:
        return data.copy()
    kernel = op_kernel(op, data.dtype)
    assert kernel is not None
    return run_kernel(kernel, data)


def run_ops(ops: Iterable[KernelOp], data: np.ndarray) -> np.ndarray:
    """Apply ``ops`` in order to a flat payload."""
    for op in ops:
        data = run_op(op, data)
    return data


class RoundInterpreter:
    """Execute programs by interpreting their access rounds."""

    def run(self, program: KernelProgram, a: np.ndarray) -> np.ndarray:
        data = np.asarray(a)
        if data.shape != (program.n,):
            raise SizeError(
                f"a must have shape ({program.n},), got {data.shape}"
            )
        program.validate()
        return run_ops(program.ops, data)
