"""Deterministic snapshots of simulation state.

Incremental re-simulation (the digital-twin loop in
:mod:`repro.serving.twin`) needs to freeze a running simulation at a
window boundary and later resume it — possibly several times, under
several what-if configurations — with the resumed run byte-identical
to one that never paused.  This module provides the three primitives
that make that safe:

* :func:`clone_state` — one :func:`copy.deepcopy` over an explicit
  state tree, with a pre-seeded memo so designated *shared* objects
  (immutable corpora, backend indexes) are referenced rather than
  copied.  A single deepcopy call is load-bearing: objects that appear
  in the tree more than once (a :class:`~repro.serving.request.Request`
  sitting in the batcher queue *and* in a heap ``Arrival`` payload, a
  ``Migration`` shared between the rebalancer's in-flight table and a
  heap ``DataMovement`` payload) keep their identity-sharing in the
  copy, so a restored run mutates one object where the original did.
* :func:`state_digest` — a canonical content hash over the same tree.
  Unlike pickling, it is explicit about what it understands (and
  raises on anything else, so un-captured state cannot slip in
  silently), hashes dicts in *iteration* order (deterministic in a
  deterministic simulation, and it preserves LRU recency that sorted
  order would erase), and knows numpy arrays and seeded RNG state.
* :func:`chain_digest` — the same canonical encoding folded one item
  at a time into a chained sha256, so a history that only grows (the
  serving frontend's retired requests) is hashed once per item, not
  once per capture.
* :func:`capture_loop` / :func:`restore_loop` — the
  :class:`~repro.sim.events.EventLoop`'s own state: clock, dispatch
  counts, the pending-event heap and the ``seq`` tie-break counter.
  The captured heap list is already heap-ordered, so restore is a
  plain assignment — no re-heapify that could perturb tie-breaks.

A :class:`Snapshot` is immutable and restorable any number of times:
restoring deep-copies *again*, so two forks of the same checkpoint
never share mutable state — with one exception the owner declares.
Objects the simulation never changes again (the frontend's retired
requests) are passed as ``shared`` on capture and on restore, so the
live run, its snapshots and every fork hold the same objects.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import types
from collections import OrderedDict
from typing import Any, Iterable

import numpy as np

from repro.sim.events import EventLoop

#: Bump when the captured state tree's shape changes incompatibly;
#: :meth:`restore <repro.serving.frontend.ServingFrontend.restore>`
#: refuses snapshots from another version.
SNAPSHOT_VERSION = 3


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """A frozen, content-addressed capture of simulation state.

    ``state`` is a plain nested tree (dicts/lists/scalars/arrays plus
    the captured domain objects) produced by one :func:`clone_state`
    pass — it shares nothing with the live simulation that the
    simulation still mutates.
    ``digest`` is :func:`state_digest` over that tree: two snapshots
    with equal digests resume identically.
    """

    version: int
    kind: str
    time: float
    state: dict
    digest: str


def clone_state(state: Any, shared: Iterable[Any] = ()) -> Any:
    """Deep-copy ``state`` in one pass, referencing ``shared`` objects.

    ``shared`` objects (and anything reached only through them) are
    kept by reference — the memo pre-seeding makes deepcopy treat them
    as already-copied.  Everything else is copied with identity-sharing
    preserved across the whole tree.
    """
    # deepcopy's documented memo protocol is id-keyed by design, and
    # every keyed object is pinned alive by `shared` for the whole call.
    memo: dict[int, Any] = {id(obj): obj for obj in shared}  # repro-lint: disable=DET001
    return copy.deepcopy(state, memo)


def capture_loop(loop: EventLoop) -> dict:
    """Freeze an :class:`EventLoop`'s clock, counters and pending heap.

    Handlers and the observer are *not* captured — they close over live
    frontend state and are re-registered by the owner on restore.
    """
    return {
        "now": loop.now,
        "processed": loop.processed,
        "counts": dict(loop.counts),
        "seq": loop._seq,
        "heap": list(loop._heap),
        "stopped": loop._stopped,
    }


def restore_loop(loop: EventLoop, state: dict) -> None:
    """Load :func:`capture_loop` state into ``loop``.

    The captured heap list is in valid heap order already (it was
    lifted from a live heap), so it is assigned directly — re-heapifying
    could reorder equal keys and break determinism.
    """
    loop.now = state["now"]
    loop.processed = state["processed"]
    loop.counts = dict(state["counts"])
    loop._seq = state["seq"]
    loop._heap = list(state["heap"])
    loop._stopped = state["stopped"]


# ---- canonical content hashing ------------------------------------------

#: Live wiring, never state.  Hashed as plain objects, every function,
#: lambda, bound method or partial would get the same digest: their
#: ``__dict__`` says nothing about what they do.
_CALLABLES = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    functools.partial,
)


def state_digest(state: Any) -> str:
    """Canonical sha256 over a captured state tree.

    Deliberately *not* pickle: the hash is stable across processes and
    Python versions for everything it understands, and raises
    ``TypeError`` for anything it does not (callables, modules, open
    handles) — so a capture that accidentally includes live wiring
    fails loudly instead of hashing an address.
    """
    hasher = hashlib.sha256()
    _feed(hasher, state)
    return hasher.hexdigest()


def chain_digest(prev: str, items: Iterable[Any]) -> str:
    """Fold ``items`` one at a time into the chained sha256 ``prev``.

    Each link hashes the previous link and one item's canonical
    :func:`state_digest` encoding, so folding a sequence in one call
    equals folding it in any split, each call passing on the last
    result.  ``""`` is the empty chain.
    """
    for item in items:
        hasher = hashlib.sha256(b"C" + prev.encode() + b"\x00")
        _feed(hasher, item)
        prev = hasher.hexdigest()
    return prev


def _feed(h, value: Any) -> None:
    if value is None:
        h.update(b"N")
    elif value is True:
        h.update(b"T")
    elif value is False:
        h.update(b"F")
    elif isinstance(value, int):
        h.update(b"i" + repr(value).encode())
    elif isinstance(value, float):
        h.update(b"f" + repr(value).encode())
    elif isinstance(value, str):
        h.update(b"s" + value.encode("utf-8") + b"\x00")
    elif isinstance(value, bytes):
        h.update(b"b" + value + b"\x00")
    elif isinstance(value, (list, tuple)):
        h.update(b"[" if isinstance(value, list) else b"(")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, (dict, OrderedDict)):
        # Iteration order, not sorted order: a deterministic simulation
        # populates its dicts in a deterministic order, and for an
        # OrderedDict (the LRU cache) recency *is* state.
        h.update(b"{")
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
        h.update(b"}")
    elif isinstance(value, (set, frozenset)):
        h.update(b"<")
        for member in sorted(
            hashlib.sha256(_element_bytes(m)).digest() for m in value
        ):
            h.update(member)
        h.update(b">")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(b"a" + str(arr.dtype).encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(value, np.generic):
        _feed(h, value.item())
    elif isinstance(value, _CALLABLES):
        raise TypeError(
            f"state_digest cannot hash callable "
            f"{getattr(value, '__qualname__', type(value).__qualname__)!r}: "
            f"captured state must be plain data, not wiring"
        )
    elif isinstance(value, np.random.Generator):
        h.update(b"G")
        _feed(h, value.bit_generator.state)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(b"D" + type(value).__qualname__.encode() + b"\x00")
        for f in dataclasses.fields(value):
            _feed(h, f.name)
            _feed(h, getattr(value, f.name))
    elif hasattr(value, "__dict__"):
        h.update(b"O" + type(value).__qualname__.encode() + b"\x00")
        _feed(h, vars(value))
    elif hasattr(value, "__slots__"):
        h.update(b"O" + type(value).__qualname__.encode() + b"\x00")
        for name in type(value).__slots__:
            _feed(h, name)
            _feed(h, getattr(value, name))
    else:
        raise TypeError(
            f"state_digest cannot hash {type(value).__qualname__!r}: "
            f"captured state must be plain data"
        )


def _element_bytes(member: Any) -> bytes:
    sub = hashlib.sha256()
    _feed(sub, member)
    return sub.digest()
