"""Keying contract: stability, sensitivity, code-version hashing."""

import dataclasses
import enum
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenario import scenario, scenario_names
from repro.faults.plan import fault_plan_names
from repro.store import canonical, code_version, digest_of, job_key
from repro.store.keys import _CODE_VERSIONS, recording_key


@pytest.fixture
def fig7():
    return scenario("fig7").configured(samples=100, seed=1)


class TestCanonical:
    def test_dict_ordering_insensitive(self):
        assert (digest_of({"a": 1, "b": 2})
                == digest_of({"b": 2, "a": 1}))

    def test_scalars_roundtrip(self):
        form = canonical({"x": (1, 2.5, "s", None, True)})
        assert form == {"x": [1, 2.5, "s", None, True]}

    def test_dataclass_fields_carried(self, fig7):
        form = canonical(fig7)
        assert form["__dataclass__"] == "ScenarioSpec"
        assert form["seed"] == 1
        assert form["measurement"]["samples"] == 100

    def test_exotic_values_keyed_by_typed_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert digest_of(Odd()) == digest_of(Odd())
        assert canonical(Odd()) == {"__repr__": "Odd:<odd>"}


class TestJobKey:
    def test_stable_across_calls(self, fig7):
        assert job_key(fig7) == job_key(fig7)

    def test_seed_changes_key(self, fig7):
        assert job_key(fig7) != job_key(fig7.configured(seed=2))

    def test_samples_change_key(self, fig7):
        assert job_key(fig7) != job_key(fig7.configured(samples=101))

    def test_fault_plan_and_intensity_change_key(self, fig7):
        stormed = fig7.configured(fault_plan="storm-fig6")
        assert job_key(fig7) != job_key(stormed)
        assert job_key(stormed) != job_key(
            stormed.configured(fault_intensity=2.0))

    def test_override_dict_order_insensitive(self, fig7):
        a = fig7.configured(config_overrides={"preemptible": True,
                                              "ksoftirqd": False})
        b = fig7.configured(config_overrides={"ksoftirqd": False,
                                              "preemptible": True})
        assert job_key(a) == job_key(b)

    def test_override_value_changes_key(self, fig7):
        a = fig7.configured(config_overrides={"preemptible": True})
        b = fig7.configured(config_overrides={"preemptible": False})
        assert job_key(a) != job_key(b)

    def test_code_version_changes_key(self, fig7):
        assert (job_key(fig7, code="aaa")
                != job_key(fig7, code="bbb"))


class TestCodeVersion:
    def _tree(self, root, **files):
        for name, text in files.items():
            path = os.path.join(root, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def test_single_byte_edit_changes_digest(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"pkg/a.py": "x = 1\n"})
        before = code_version(root)
        _CODE_VERSIONS.clear()
        self._tree(root, **{"pkg/a.py": "x = 2\n"})
        assert code_version(root) != before

    def test_non_python_files_ignored(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"pkg/a.py": "x = 1\n"})
        before = code_version(root)
        _CODE_VERSIONS.clear()
        self._tree(root, **{"notes.txt": "irrelevant\n"})
        assert code_version(root) == before

    def test_path_renames_change_digest(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"pkg/a.py": "x = 1\n"})
        before = code_version(root)
        _CODE_VERSIONS.clear()
        os.rename(os.path.join(root, "pkg/a.py"),
                  os.path.join(root, "pkg/b.py"))
        assert code_version(root) != before

    def test_cached_per_process(self, tmp_path):
        root = str(tmp_path)
        self._tree(root, **{"a.py": "x = 1\n"})
        first = code_version(root)
        # A second call must not re-walk: mutate behind the cache and
        # observe the cached digest (callers rely on one hash/process).
        self._tree(root, **{"a.py": "x = 3\n"})
        assert code_version(root) == first

    def test_repro_tree_hashes(self):
        digest = code_version()
        assert len(digest) == 64
        assert digest == code_version()


# ----------------------------------------------------------------------
# canonical() against the original recursive implementation
# ----------------------------------------------------------------------
def oracle_canonical(value):
    """The original ``canonical``: dataclass check first, every node."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__dataclass__": type(value).__name__}
        for field in dataclasses.fields(value):
            out[field.name] = oracle_canonical(getattr(value, field.name))
        return out
    if isinstance(value, dict):
        return {str(k): oracle_canonical(v)
                for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [oracle_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def oracle_digest(value):
    text = json.dumps(oracle_canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def oracle_spec(spec):
    form = oracle_canonical(spec)
    form["config_overrides"] = sorted(
        form["config_overrides"],
        key=lambda pair: json.dumps(pair, sort_keys=True))
    return form


def oracle_job_key(spec, code):
    return oracle_digest({"spec": oracle_spec(spec), "code": code})


def oracle_recording_key(spec, capacity, code):
    return oracle_digest({"kind": "rtrace", "spec": oracle_spec(spec),
                          "capacity": capacity, "code": code})


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Nested:
    inner: Empty = Empty()
    items: tuple = (1, "two", 3.0)


class Level(enum.IntEnum):
    HIGH = 3


#: Override values of every kind canonical() distinguishes.
OVERRIDE_VALUES = [True, False, 0, 7, 2.5, "deadline", None, (1, 2),
                   {"b": 1, "a": [2, 3]}, Empty(), Nested(), Level.HIGH,
                   complex(1, 2)]


def specs_for(name):
    """Catalog spec variants: seeds, fault plans, intensities and
    config overrides in sorted and in reversed order."""
    base = scenario(name)
    pairs = (("ksoftirqd", False), ("preemptible", True),
             ("hz", 1000), ("odd", Nested()))
    for seed in (1, 2, 97):
        for plan, intensity in ((None, None), ("storm-fig6", 0.5),
                                ("shield-flap", 2.0)):
            spec = base.configured(seed=seed, fault_plan=plan,
                                   fault_intensity=intensity)
            yield spec
            overridden = spec.configured(config_overrides=dict(pairs))
            yield overridden
            yield dataclasses.replace(
                overridden, config_overrides=tuple(reversed(
                    overridden.config_overrides)))


class TestCanonicalMatchesOracle:
    @pytest.mark.parametrize("name", scenario_names())
    def test_catalog_keys_unchanged(self, name):
        for spec in specs_for(name):
            assert canonical(spec) == oracle_canonical(spec)
            assert job_key(spec, code="c0de") == \
                oracle_job_key(spec, "c0de")
            assert recording_key(spec, 4096, code="c0de") == \
                oracle_recording_key(spec, 4096, "c0de")

    def test_every_fault_plan(self):
        spec = scenario("fig6")
        for plan in fault_plan_names():
            for intensity in (0.25, 1.0, 3.0):
                varied = spec.configured(fault_plan=plan,
                                         fault_intensity=intensity)
                assert job_key(varied, code="c0de") == \
                    oracle_job_key(varied, "c0de")

    def test_zero_field_dataclass(self):
        assert canonical(Empty()) == {"__dataclass__": "Empty"}
        assert canonical(Empty()) == oracle_canonical(Empty())
        assert canonical(Nested()) == oracle_canonical(Nested())
        # A dataclass *type* is not an instance: typed-repr fallback.
        assert canonical(Empty) == oracle_canonical(Empty)

    def test_scalar_subclasses_take_the_general_path(self):
        assert canonical(Level.HIGH) == oracle_canonical(Level.HIGH)
        assert canonical(complex(1, 2)) == {"__repr__": "complex:(1+2j)"}

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(scenario_names()),
           seed=st.integers(0, 2**31),
           overrides=st.dictionaries(
               st.text("abcdefghij_", min_size=1, max_size=8),
               st.sampled_from(OVERRIDE_VALUES), max_size=5),
           reverse=st.booleans())
    def test_random_overrides(self, name, seed, overrides, reverse):
        spec = scenario(name).configured(seed=seed,
                                         config_overrides=overrides)
        if reverse:
            spec = dataclasses.replace(
                spec, config_overrides=tuple(reversed(
                    spec.config_overrides)))
        assert canonical(spec) == oracle_canonical(spec)
        assert job_key(spec, code="c0de") == oracle_job_key(spec, "c0de")
