"""Tests for the zero-dependency metrics registry."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("jg_test_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.samples()[0].value == pytest.approx(3.5)

    def test_rejects_negative_increments(self):
        counter = Counter("jg_test_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_labelled_children_are_independent(self):
        counter = Counter("jg_req_total", "help", ("type",))
        counter.labels("step").inc(3)
        counter.labels("hello").inc(1)
        values = {
            dict(s.labels)["type"]: s.value for s in counter.samples()
        }
        assert values == {"step": 3.0, "hello": 1.0}

    def test_unlabelled_family_rejects_labels(self):
        counter = Counter("jg_test_total", "help")
        with pytest.raises(ValueError):
            counter.labels("nope")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("jg_level", "help")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.samples()[0].value == pytest.approx(7.0)

    def test_remove_drops_a_series(self):
        gauge = Gauge("jg_session_pole", "help", ("session",))
        gauge.labels("s1").set(0.5)
        gauge.labels("s2").set(0.7)
        gauge.remove("s1")
        labels = [dict(s.labels)["session"] for s in gauge.samples()]
        assert labels == ["s2"]

    def test_keyword_labels(self):
        gauge = Gauge("jg_g", "help", ("a", "b"))
        gauge.labels(b="2", a="1").set(9.0)
        assert dict(gauge.samples()[0].labels) == {"a": "1", "b": "2"}


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        histogram = Histogram(
            "jg_seconds", "help", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        samples = {
            (s.name, dict(s.labels).get("le")): s.value
            for s in histogram.samples()
        }
        assert samples[("jg_seconds_bucket", "0.1")] == 1
        assert samples[("jg_seconds_bucket", "1")] == 2
        assert samples[("jg_seconds_bucket", "10")] == 3
        assert samples[("jg_seconds_bucket", "+Inf")] == 4
        assert samples[("jg_seconds_count", None)] == 4
        assert samples[("jg_seconds_sum", None)] == pytest.approx(55.55)


class TestRegistry:
    def test_rejects_duplicate_names(self):
        registry = MetricsRegistry()
        registry.counter("jg_x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("jg_x_total", "help")

    def test_collect_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("jg_b_total", "b")
        registry.gauge("jg_a", "a")
        names = [metric.name for metric in registry.collect()]
        assert names == sorted(names)

    def test_get_finds_registered_family(self):
        registry = MetricsRegistry()
        counter = registry.counter("jg_x_total", "help")
        assert registry.get("jg_x_total") is counter
        assert registry.get("missing") is None

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("9starts_with_digit", "help")
        with pytest.raises(ValueError):
            Counter("jg_ok_total", "help", ("__reserved",))


class TestLabelsLookup:
    """``labels()`` finds an existing child before building its key."""

    def test_string_values_return_the_same_child(self):
        counter = Counter("jg_req_total", "help", ("type", "ok"))
        child = counter.labels("step", "true")
        assert counter.labels("step", "true") is child

    def test_non_string_values_find_their_string_child(self):
        gauge = Gauge("jg_g", "help", ("worker",))
        five = gauge.labels("5")
        assert gauge.labels(5) is five
        flag = gauge.labels("True")
        assert gauge.labels(True) is flag
        # ...and create it under the string when it does not exist.
        gauge.labels(7).set(1.0)
        assert gauge.labels("7").value == 1.0
        assert sorted(dict(s.labels)["worker"] for s in gauge.samples()) == [
            "5",
            "7",
            "True",
        ]

    def test_wrong_arity_raises_after_a_child_exists(self):
        counter = Counter("jg_req_total", "help", ("type", "ok"))
        counter.labels("step", "true").inc()
        with pytest.raises(ValueError):
            counter.labels("step")
        with pytest.raises(ValueError):
            counter.labels("step", "true", "extra")
        unlabelled = Counter("jg_test_total", "help")
        unlabelled.inc()
        with pytest.raises(ValueError):
            unlabelled.labels("nope")

    def test_keyword_labels_reach_the_positional_child(self):
        counter = Counter("jg_req_total", "help", ("type", "ok"))
        child = counter.labels("step", "true")
        assert counter.labels(ok="true", type="step") is child
        with pytest.raises(ValueError):
            counter.labels(type="step")
        with pytest.raises(ValueError):
            counter.labels("step", ok="true")

    def test_unhashable_values_are_stringified(self):
        gauge = Gauge("jg_g", "help", ("shape",))
        gauge.labels([1, 2]).set(3.0)
        assert gauge.labels("[1, 2]").value == 3.0
