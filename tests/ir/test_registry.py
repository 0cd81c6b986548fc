"""Engine-registry tests: protocol enforcement, lookup, uniqueness."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.ir.engine import Engine, EngineBase
from repro.ir.registry import (
    _REGISTRY,
    engine_names,
    get_engine,
    register_engine,
)
from repro.permutations.named import random_permutation

EXPECTED = (
    "scheduled",
    "padded",
    "d-designated",
    "s-designated",
    "dmm-conventional",
    "dmm-scheduled",
    "cpu-blocked",
    "cpu-inplace",
    "cpu-naive",
)


class TestCatalogue:
    def test_all_engines_registered_in_canonical_order(self):
        assert set(engine_names()) == set(EXPECTED)

    def test_get_engine_sets_engine_name(self):
        for name in engine_names():
            assert get_engine(name).engine_name == name

    def test_unknown_engine_names_the_candidates(self):
        with pytest.raises(ValidationError, match="quantum"):
            get_engine("quantum")

    def test_every_engine_satisfies_the_protocol(self):
        for name in engine_names():
            cls = get_engine(name)
            for attr in ("plan", "lower", "apply", "apply_batch",
                         "simulate", "predict"):
                assert hasattr(cls, attr), (name, attr)

    def test_planned_engines_are_structural_engines(self):
        p = random_permutation(256, seed=0)
        for name in engine_names():
            engine = get_engine(name).plan(p, width=4)
            assert isinstance(engine, Engine), name
            assert np.array_equal(np.asarray(engine.p), p), name


class TestRegistration:
    def test_partial_engine_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            @register_engine("broken")
            class Broken:
                def lower(self):
                    return None
        assert "broken" not in engine_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            @register_engine("scheduled")
            class Impostor(EngineBase):
                @classmethod
                def plan(cls, p, width=32):
                    return cls()

                def apply(self, a, recorder=None):
                    return a

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_engine("scheduled")
        assert register_engine("scheduled")(cls) is cls

    def test_fresh_name_registers_and_unregisters(self):
        @register_engine("test-noop")
        class Noop(EngineBase):
            @classmethod
            def plan(cls, p, width=32):
                return cls()

            def apply(self, a, recorder=None):
                return a

        try:
            assert get_engine("test-noop") is Noop
            assert Noop.engine_name == "test-noop"
        finally:
            del _REGISTRY["test-noop"]
        assert "test-noop" not in engine_names()
