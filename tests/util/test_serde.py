"""Round trips through the generic dataclass <-> JSON codec."""

import dataclasses
import json
from typing import Optional

import pytest

from repro.util.serde import (
    dataclass_type_hints,
    from_jsonable,
    qualified_type_name,
    resolve_type_name,
    to_jsonable,
)


@dataclasses.dataclass(frozen=True)
class Leaf:
    label: str
    weight: float


@dataclasses.dataclass(frozen=True)
class Tree:
    name: str
    leaves: tuple[Leaf, ...]
    tags: tuple[str, ...] = ()
    scores: dict[int, float] = dataclasses.field(default_factory=dict)
    note: Optional[str] = None


class TestRoundTrip:
    def test_nested_dataclasses_and_tuples(self):
        tree = Tree(
            name="t",
            leaves=(Leaf("a", 1.5), Leaf("b", 2.25)),
            tags=("x", "y"),
            scores={3: 0.1, 7: 0.2},
            note="hello",
        )
        data = to_jsonable(tree)
        # the flattened form must survive an actual JSON encode/decode
        restored = from_jsonable(Tree, json.loads(json.dumps(data)))
        assert restored == tree
        assert isinstance(restored.leaves, tuple)
        assert isinstance(restored.leaves[0], Leaf)

    def test_int_dict_keys_are_restored(self):
        tree = Tree(name="t", leaves=(), scores={42: 1.0})
        restored = from_jsonable(Tree, json.loads(json.dumps(to_jsonable(tree))))
        assert restored.scores == {42: 1.0}
        assert all(isinstance(k, int) for k in restored.scores)

    def test_optional_none_survives(self):
        tree = Tree(name="t", leaves=())
        assert from_jsonable(Tree, to_jsonable(tree)).note is None

    def test_floats_survive_exactly(self):
        leaf = Leaf("pi-ish", 0.1 + 0.2)
        restored = from_jsonable(Leaf, json.loads(json.dumps(to_jsonable(leaf))))
        assert restored.weight == leaf.weight

    def test_missing_fields_fall_back_to_defaults(self):
        restored = from_jsonable(Tree, {"name": "t", "leaves": []})
        assert restored.tags == () and restored.scores == {}

    def test_real_experiment_result_round_trips(self, fast_config):
        from repro.experiments.fig6_process_times import run

        result = run(fast_config)
        restored = from_jsonable(type(result), to_jsonable(result))
        assert restored == result

    def test_unexportable_values_are_rejected(self):
        with pytest.raises(TypeError, match="cannot export"):
            to_jsonable({"f": object()})

    def test_non_mapping_for_dataclass_is_rejected(self):
        with pytest.raises(TypeError, match="expected a mapping"):
            from_jsonable(Leaf, [1, 2])


class TestTypeHintCache:
    def test_hints_are_resolved_once_and_read_only(self):
        hints = dataclass_type_hints(Tree)
        assert dataclass_type_hints(Tree) is hints
        assert hints["leaves"] == tuple[Leaf, ...]
        with pytest.raises(TypeError):
            hints["name"] = int  # type: ignore[index]

    def test_nested_decode_twice_gives_equal_results(self):
        data = {
            "name": "t",
            "leaves": [{"label": "a", "weight": 1}, {"label": "b", "weight": 2.5}],
            "scores": {"3": 0.5},
        }
        first = from_jsonable(Tree, data)
        second = from_jsonable(Tree, data)
        assert first == second
        assert isinstance(second.leaves[0], Leaf)
        assert second.leaves[0].weight == 1.0 and second.scores == {3: 0.5}


class TestTypeNames:
    def test_round_trip(self):
        from repro.experiments.fig6_process_times import Fig6Result

        name = qualified_type_name(Fig6Result)
        assert name == "repro.experiments.fig6_process_times:Fig6Result"
        assert resolve_type_name(name) is Fig6Result

    def test_malformed_names_rejected(self):
        with pytest.raises(ValueError):
            resolve_type_name("no-colon")
        with pytest.raises(ValueError):
            resolve_type_name("mod:Outer.Inner")

    def test_non_class_target_rejected(self):
        with pytest.raises(TypeError):
            resolve_type_name("math:pi")
