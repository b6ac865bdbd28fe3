"""``state_digest``: canonical hashing of captured state, wiring rejected."""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pytest

from repro.sim.snapshot import clone_state, state_digest


def _function(x):
    return x


class _Holder:
    def __init__(self, value) -> None:
        self.value = value

    def method(self):
        return self.value


@dataclass
class _Point:
    x: int
    y: float


class TestStateDigest:
    def test_plain_data_hashes_stably(self):
        state = {
            "a": [1, 2.5, "s", None, True],
            "b": (np.arange(3), np.float64(1.5)),
            "c": OrderedDict(x=1),
            "d": _Point(1, 2.0),
            "e": _Holder({1, 2}),
            "rng": np.random.default_rng(7),
        }
        assert state_digest(state) == state_digest(clone_state(state))

    def test_content_changes_the_digest(self):
        assert state_digest(_Holder([1])) != state_digest(_Holder([2]))
        assert state_digest({"a": 1, "b": 2}) != state_digest({"b": 2, "a": 1})

    @pytest.mark.parametrize(
        "wiring",
        (
            _function,
            lambda: 1,
            _Holder(1).method,
            len,
            functools.partial(_function, 1),
        ),
        ids=("function", "lambda", "bound-method", "builtin", "partial"),
    )
    def test_callables_are_rejected(self, wiring):
        with pytest.raises(TypeError, match="callable"):
            state_digest(wiring)

    def test_callable_nested_in_an_object_is_rejected(self):
        # A component that stores a callback fails loudly instead of
        # hashing as an empty object.
        with pytest.raises(TypeError, match="callable"):
            state_digest({"component": _Holder(lambda: None)})

    def test_unknown_types_are_rejected(self):
        with pytest.raises(TypeError):
            state_digest(object())
