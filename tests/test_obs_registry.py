"""Tests for the metrics registry (repro.obs.registry)."""

from repro.obs import SCHEMA, Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_overwrites(self):
        g = Gauge()
        assert g.value is None
        g.set(3)
        g.set(7)
        assert g.value == 7

    def test_histogram_summary(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        s = h.summary()
        assert s["n"] == 4
        assert s["min"] == 1.0
        assert s["max"] == 4.0

    def test_histogram_empty_summary(self):
        assert Histogram().summary() == {"n": 0}


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("x", rule="R1")
        b = reg.counter("x", rule="R1")
        assert a is b

    def test_labels_distinguish(self):
        reg = MetricsRegistry()
        reg.counter("x", rule="R1").inc()
        reg.counter("x", rule="R2").inc(5)
        assert reg.value("x", rule="R1") == 1
        assert reg.value("x", rule="R2") == 5

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        assert reg.counter("x", b=2, a=1).value == 1

    def test_conveniences(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.gauge("depth").set(9)
        reg.observe("lat", 0.5)
        assert reg.value("hits") == 3
        assert reg.value("depth") == 9
        assert reg.histogram("lat").samples == [0.5]

    def test_value_none_when_untouched(self):
        assert MetricsRegistry().value("nope") is None

    def test_counters_iterates_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        assert list(reg.counters()) == [("a", {}, 2), ("b", {}, 1)]

    def test_rows_schema_tagged(self):
        reg = MetricsRegistry()
        reg.counter("n", proto="SSMFP").inc(3)
        reg.gauge("g").set(1)
        reg.observe("h", 2.0)
        rows = reg.rows()
        assert all(r["schema"] == SCHEMA and r["kind"] == "metric" for r in rows)
        by_type = {r["type"]: r for r in rows}
        assert by_type["counter"]["metric"] == "n"
        assert by_type["counter"]["labels"] == {"proto": "SSMFP"}
        assert by_type["counter"]["value"] == 3
        assert by_type["gauge"]["value"] == 1
        assert by_type["histogram"]["n"] == 1
