"""AssessorConfig / from_config builder, registries, and the keyword-only constructor."""

from __future__ import annotations

import warnings

import pytest

from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.registry import (
    available_behavior_tests,
    make_behavior_test,
    register_behavior_test,
    resolve_behavior_test_name,
)
from repro.core.two_phase import Assessor, TwoPhaseAssessor
from repro.trust.base import LedgerTrustFunction, TrustFunction
from repro.trust.registry import (
    available_trust_functions,
    make_trust_function,
    resolve_trust_name,
)
from repro.trust.average import AverageTrust


class TestAssessorConfig:
    def test_defaults_match_the_paper(self):
        config = AssessorConfig()
        assert config.trust_function == "average"
        assert config.behavior_test == "multi"
        assert config.trust_threshold == 0.9

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="trust_threshold"):
            AssessorConfig(trust_threshold=1.5)

    def test_options_freeze_and_round_trip(self):
        config = AssessorConfig(
            trust_function="weighted", trust_options={"lam": 0.5}
        )
        assert config.trust_options == (("lam", 0.5),)
        assert config.trust_kwargs == {"lam": 0.5}
        assert isinstance(hash(config), int)  # frozen and hashable

    def test_with_produces_modified_copy(self):
        base = AssessorConfig()
        derived = base.with_(trust_threshold=0.5, behavior_test=None)
        assert derived.trust_threshold == 0.5
        assert derived.behavior_test is None
        assert base.trust_threshold == 0.9


class TestFromConfig:
    @pytest.mark.parametrize("name", sorted(available_trust_functions()))
    def test_every_trust_function_round_trips(self, name):
        assessor = Assessor.from_config(
            AssessorConfig(trust_function=name, behavior_test=None)
        )
        expected = type(make_trust_function(name))
        assert type(assessor.trust_function) is expected
        assert isinstance(
            assessor.trust_function, (TrustFunction, LedgerTrustFunction)
        )

    @pytest.mark.parametrize(
        "alias", ["avg", "mean", "beta-reputation", "peer-trust", "eigen"]
    )
    def test_trust_aliases_resolve(self, alias):
        canonical = resolve_trust_name(alias)
        assert canonical in available_trust_functions()
        assessor = Assessor.from_config(
            AssessorConfig(trust_function=alias, behavior_test=None)
        )
        assert type(assessor.trust_function) is type(make_trust_function(canonical))

    @pytest.mark.parametrize("name", sorted(available_behavior_tests()))
    def test_every_behavior_test_round_trips(self, name):
        # multinomial's rating domain cannot be inferred from data
        options = {"n_categories": 3} if name == "multinomial" else {}
        assessor = Assessor.from_config(
            AssessorConfig(behavior_test=name, behavior_options=options)
        )
        assert assessor.behavior_test is not None
        assert assessor.behavior_test.name == name

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("scheme1", "single"),
            ("scheme2", "multi"),
            ("collusion", "collusion-multi"),
            ("category", "categorized"),
        ],
    )
    def test_behavior_aliases_resolve(self, alias, canonical):
        assert resolve_behavior_test_name(alias) == canonical
        assessor = Assessor.from_config(AssessorConfig(behavior_test=alias))
        assert assessor.behavior_test.name == canonical

    @pytest.mark.parametrize("none_name", [None, "none", "off", "disabled"])
    def test_disabled_screening_spellings(self, none_name):
        assessor = Assessor.from_config(AssessorConfig(behavior_test=none_name))
        assert assessor.behavior_test is None

    def test_test_config_and_options_flow_through(self):
        config = AssessorConfig(
            behavior_test="multi",
            test_config=BehaviorTestConfig(multi_step=250),
            behavior_options={"strategy": "naive"},
            trust_function="weighted",
            trust_options={"lam": 0.25},
            trust_threshold=0.8,
        )
        assessor = Assessor.from_config(config)
        assert assessor.behavior_test.config.multi_step == 250
        assert assessor.behavior_test.strategy == "naive"
        assert assessor.trust_threshold == 0.8

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="unknown trust function"):
            Assessor.from_config(AssessorConfig(trust_function="nope"))
        with pytest.raises(KeyError, match="unknown behavior test"):
            Assessor.from_config(AssessorConfig(behavior_test="nope"))

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_behavior_test("multi", lambda **kw: None)
        with pytest.raises(ValueError):
            register_behavior_test("brand-new", lambda **kw: None, aliases=["multi"])

    def test_make_behavior_test_none_returns_none(self):
        assert make_behavior_test(None) is None
        assert make_behavior_test("none") is None


class TestDeprecatedPositionalConstruction:
    def test_keyword_form_emits_no_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            TwoPhaseAssessor(
                behavior_test=None,
                trust_function=AverageTrust(),
                trust_threshold=0.9,
            )
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_trust_function_is_required(self):
        with pytest.raises(TypeError, match="trust_function"):
            TwoPhaseAssessor(behavior_test=None)

    def test_assessor_is_the_same_class(self):
        assert Assessor is TwoPhaseAssessor
