"""Determinism rules (DET001–DET005).

Each rule encodes a bug class that has actually threatened the repo's
byte-reproducibility contract (same seed + config → identical report
digests), so the messages point at the repo's own safe idioms rather
than generic advice.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import FileContext
from .findings import Finding
from .registry import Rule, register

# Qualified callables whose results depend on wall clock or OS entropy.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)

# ``random`` module-level functions share one hidden global
# ``random.Random`` instance — any caller anywhere perturbs every other
# caller's stream.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.uniform",
        "random.triangular",
        "random.gauss",
        "random.normalvariate",
        "random.lognormvariate",
        "random.expovariate",
        "random.betavariate",
        "random.gammavariate",
        "random.paretovariate",
        "random.weibullvariate",
        "random.vonmisesvariate",
        "random.getrandbits",
        "random.randbytes",
        "random.seed",
    }
)

# ``numpy.random`` attributes that are *not* legacy global-state
# functions; everything else on the module is.
NP_RANDOM_SAFE = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",  # constructing an explicit (seedable) stream
    }
)


def _contains_id_call(node: ast.AST) -> ast.Call | None:
    """First ``id(...)`` call anywhere under ``node`` (or ``None``)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
            and sub.args
        ):
            return sub
    return None


@register
class IdAsKey(Rule):
    """``id(x)`` as a dict/cache key.

    The PR 1 bug class: ``id`` values are reused after garbage
    collection, so an ``id()``-keyed cache can serve one object's entry
    to a different object.  The repo idiom keys by the object itself:
    an object that hashes by identity (a plain class, an ``eq=False``
    dataclass such as ``SearchTrace``) is kept alive by its own key, so
    its entry can only hit for it (``NDSearch.simulate_traces``).  Only
    ``copy.deepcopy``'s memo, whose protocol is ``id``-keyed, carries a
    pragma.
    """

    ID = "DET001"
    TITLE = "id() used as a dict/cache key"

    MSG = (
        "id(x) used as a cache/dict key: ids are recycled after GC, so a "
        "stale entry can hit for a different object (the PR 1 speculative-"
        "set collision). Key by the object itself: an identity-hashed key "
        "keeps its object alive, so its entry cannot hit for another."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            hit: ast.Call | None = None
            if isinstance(node, ast.Subscript):
                # d[id(x)] — read, write, or delete.
                hit = _contains_id_call(node.slice)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # d.get(id(x)) / d.setdefault(id(x), ...) / d.pop(id(x)).
                if node.func.attr in {"get", "setdefault", "pop"} and node.args:
                    hit = _contains_id_call(node.args[0])
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and (hit := _contains_id_call(key)):
                        break
            elif isinstance(node, ast.DictComp):
                hit = _contains_id_call(node.key)
            elif isinstance(node, ast.Assign):
                # key_tuple = (id(x), ...): the key escapes through a
                # name that announces itself as a key.
                names = [
                    t.id
                    for t in node.targets
                    if isinstance(t, ast.Name) and "key" in t.id.lower()
                ]
                if names:
                    hit = _contains_id_call(node.value)
            if hit is not None:
                yield self.finding(ctx, hit, self.MSG)


@register
class WallClock(Rule):
    """Wall-clock / OS-entropy reads inside simulation code.

    The simulated clock is ``EventLoop.now``; host time leaking into
    simulation state makes two identical runs diverge.  The rule holds
    for every ``repro.*`` module; host-time measurement lives outside
    the package, in ``benchmarks/e2e``.
    """

    ID = "DET002"
    TITLE = "wall-clock/OS-entropy call in simulation code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is None or not ctx.module.startswith("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified_name(node.func)
            if qual in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{qual}() reads the wall clock / OS entropy inside "
                    "simulation code; use the simulated clock "
                    "(EventLoop.now / event.time) or a seeded source. "
                    "Host-time measurement belongs in benchmarks/e2e.",
                )


@register
class UnseededRng(Rule):
    """Global-state or unseeded RNG.

    Every random draw in the repo flows from an explicitly seeded
    ``numpy.random.Generator`` (``default_rng(seed)``); module-level
    ``random.*`` / legacy ``np.random.*`` calls share hidden global
    state that any import can perturb, and a zero-argument
    ``default_rng()`` / ``Random()`` seeds from the OS.
    """

    ID = "DET003"
    TITLE = "unseeded or global-state RNG"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified_name(node.func)
            if qual is None:
                continue
            if qual in GLOBAL_RANDOM_FUNCS:
                yield self.finding(
                    ctx,
                    node,
                    f"{qual}() draws from the hidden module-global RNG; "
                    "pass an explicitly seeded numpy Generator "
                    "(np.random.default_rng(seed)) or random.Random(seed).",
                )
            elif qual in {"random.Random", "numpy.random.RandomState"} and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{qual}() with no seed draws its state from the OS; "
                    "pass an explicit seed.",
                )
            elif qual.startswith("numpy.random."):
                attr = qual.removeprefix("numpy.random.")
                if attr not in NP_RANDOM_SAFE:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qual}() mutates numpy's legacy global RNG state; "
                        "use an explicitly seeded "
                        "np.random.default_rng(seed) Generator.",
                    )
                elif attr == "default_rng" and not (node.args or node.keywords):
                    yield self.finding(
                        ctx,
                        node,
                        "np.random.default_rng() with no seed draws entropy "
                        "from the OS; pass an explicit seed.",
                    )


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically set-valued: literal, comprehension, set()/frozenset()
    call, or a binary combination (| & - ^) of set-valued operands."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetIterationOrder(Rule):
    """Direct iteration over a set expression in ``src/repro``.

    Set iteration order depends on insertion history and hash seeds of
    the element values; feeding it to anything ordering-sensitive
    (result assembly, scheduling, serialization) breaks run-to-run
    stability.  Wrap the set in ``sorted(...)`` — order-insensitive
    reducers (``sum``/``min``/``max``/``len``/``any``/``all``) and
    membership tests are fine and not flagged.
    """

    ID = "DET004"
    TITLE = "ordering-sensitive iteration over a set expression"

    MSG = (
        "iterating a set produces hash-order, which is not stable across "
        "runs/interpreters; wrap it in sorted(...) before it feeds "
        "anything ordering-sensitive."
    )

    # Consumers that preserve (and therefore expose) iteration order.
    _ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter"}
    # Reducers whose result is independent of element order: a
    # comprehension feeding one of these may iterate a set freely.
    _ORDER_FREE_REDUCERS = {
        "sorted", "sum", "min", "max", "any", "all", "set", "frozenset", "len",
    }

    def _feeds_order_free_reducer(self, ctx: FileContext, node: ast.AST) -> bool:
        parent = ctx.parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in self._ORDER_FREE_REDUCERS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is None or not ctx.module.startswith("repro"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(ctx, node.iter, self.MSG)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                # A comprehension rebuilding a set/dict is itself
                # unordered; only ordered collectors (list/generator)
                # expose the set's order — and not even those when the
                # result immediately feeds an order-free reducer like
                # sorted(...) or sum(...).
                if self._feeds_order_free_reducer(ctx, node):
                    continue
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.finding(ctx, gen.iter, self.MSG)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_SENSITIVE_CALLS
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield self.finding(ctx, node.args[0], self.MSG)


# Bare constructors and qualified factory callables that build mutable
# containers.  qualified_name resolves ``from collections import
# OrderedDict`` style imports to the dotted form.
_MUTABLE_FACTORY_NAMES = frozenset({"dict", "list", "set", "bytearray"})
_MUTABLE_FACTORY_QUALS = frozenset(
    {
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.deque",
        "collections.Counter",
        "collections.ChainMap",
    }
)


def _is_mutable_container_expr(ctx: FileContext, node: ast.expr) -> bool:
    """Syntactically a freshly built mutable container."""
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORY_NAMES
        ):
            return True
        qual = ctx.qualified_name(node.func)
        if qual in _MUTABLE_FACTORY_QUALS:
            return True
    return False


@register
class ModuleLevelMutableState(Rule):
    """Module-level mutable containers in the serving/simulation trees.

    A dict/list/set bound at module scope outlives every simulation
    run in the process: state from one run leaks into the next, two
    frontends in one process couple through it, and snapshot/restore
    (``repro.sim.snapshot``) cannot capture it — a restored run then
    diverges from the run it forked, breaking the byte-reproducibility
    contract the parity suite pins.  Keep per-run state on the objects
    that own it.  Deliberate content-keyed memo caches (immutable
    values, explicit bound, no per-run state) carry a same-line
    ``# repro-lint: disable=DET005`` pragma.
    """

    ID = "DET005"
    TITLE = "module-level mutable state in serving/sim code"

    MSG = (
        "module-level mutable container: state bound at import time "
        "outlives and couples simulation runs, and snapshot/restore "
        "cannot capture it. Move it onto the owning object, or pragma "
        "it if it is a deliberate content-keyed memo of immutable "
        "build artifacts."
    )

    _SCOPES = ("repro.serving", "repro.sim")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is None or not ctx.module.startswith(self._SCOPES):
            return
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                value = node.value
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                targets = [node.target]
            else:
                continue
            # Dunder assignments (__all__ = [...]) are interpreter
            # protocol, not run state.
            if all(
                isinstance(t, ast.Name)
                and t.id.startswith("__")
                and t.id.endswith("__")
                for t in targets
            ):
                continue
            if _is_mutable_container_expr(ctx, value):
                yield self.finding(ctx, value, self.MSG)
