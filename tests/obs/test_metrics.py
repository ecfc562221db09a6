"""MetricsRegistry unit coverage: instruments, rendering, deltas."""

import pickle
import threading

import pytest

from repro.obs import (
    NULL_REGISTRY,
    REQUIRED_FAMILIES,
    MetricsRegistry,
    ambient,
    diff_state,
    get_registry,
    parse_prometheus_text,
    use_registry,
)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


def test_counter_inc_and_labels():
    m = MetricsRegistry()
    c = m.counter("repro_events_total", "events", labelnames=("kind",))
    c.labels(kind="a").inc()
    c.labels(kind="a").inc(2)
    c.labels(kind="b").inc()
    assert c.snapshot() == {("a",): 3.0, ("b",): 1.0}


def test_unlabeled_counter_inc_on_family():
    m = MetricsRegistry()
    c = m.counter("repro_plain_total")
    c.inc()
    c.inc(4)
    assert c.value == 5.0


def test_registration_is_idempotent_but_typed():
    m = MetricsRegistry()
    a = m.counter("repro_x_total", "x", labelnames=("k",))
    assert m.counter("repro_x_total", labelnames=("k",)) is a
    with pytest.raises(TypeError):
        m.gauge("repro_x_total", labelnames=("k",))
    with pytest.raises(ValueError):
        m.counter("repro_x_total", labelnames=("other",))


def test_labels_schema_is_enforced():
    m = MetricsRegistry()
    c = m.counter("repro_y_total", labelnames=("k",))
    with pytest.raises(ValueError):
        c.labels()  # missing k
    with pytest.raises(ValueError):
        c.labels(k="v", extra="nope")
    with pytest.raises(ValueError):
        m.counter("bad name")


def test_gauge_set_inc_dec():
    m = MetricsRegistry()
    g = m.gauge("repro_depth")
    g.set(7)
    g.inc()
    g.dec(3)
    assert g.value == 5.0


def test_histogram_buckets_are_cumulative_in_render():
    m = MetricsRegistry()
    h = m.histogram("repro_lat_seconds", "lat", buckets=(0.1, 1.0))
    for v in (0.05, 0.05, 0.5, 5.0):
        h.observe(v)
    text = m.render()
    assert 'repro_lat_seconds_bucket{le="0.1"} 2' in text
    assert 'repro_lat_seconds_bucket{le="1"} 3' in text
    assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in text
    assert "repro_lat_seconds_count 4" in text


def test_set_total_is_forward_only():
    m = MetricsRegistry()
    c = m.counter("repro_bridge_total").labels()
    c.set_total(10)
    c.set_total(4)  # a stale/reset external source cannot move it back
    assert c.value == 10.0
    c.set_total(12)
    assert c.value == 12.0


def test_hot_path_is_thread_safe():
    m = MetricsRegistry()
    child = m.counter("repro_hot_total", labelnames=("k",)).labels(k="x")
    threads = [
        threading.Thread(
            target=lambda: [child.inc() for _ in range(1000)])
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert child.value == 8000.0


# ---------------------------------------------------------------------------
# rendering and the exposition parser
# ---------------------------------------------------------------------------


def test_render_parses_back_with_correct_types():
    m = MetricsRegistry()
    m.counter("repro_a_total", "a", labelnames=("k",)).labels(k="x").inc()
    m.gauge("repro_b", "b").set(3)
    m.histogram("repro_c_seconds", "c").observe(0.2)
    families = parse_prometheus_text(m.render())
    assert families["repro_a_total"]["type"] == "counter"
    assert families["repro_b"]["type"] == "gauge"
    assert families["repro_c_seconds"]["type"] == "histogram"
    # histogram samples (buckets + sum + count) roll up under the family
    assert families["repro_c_seconds"]["samples"] > 3


def test_label_values_are_escaped():
    m = MetricsRegistry()
    m.counter("repro_esc_total", labelnames=("k",)).labels(
        k='we"ird\\v\nalue').inc()
    families = parse_prometheus_text(m.render())
    assert families["repro_esc_total"]["samples"] == 1


@pytest.mark.parametrize("bad", [
    "repro_ok 1\nnot a metric line!",
    'repro_bad{unclosed="x} 1',
    "repro_bad NaNish",
    "# TYPE repro_bad wat\nrepro_bad 1",
])
def test_parser_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_prometheus_text(bad)


def test_parser_skips_freeform_comments_and_blanks():
    families = parse_prometheus_text(
        "# scraped by test\n\n# HELP repro_z_total z\n"
        "# TYPE repro_z_total counter\nrepro_z_total 2\n")
    assert families["repro_z_total"]["samples"] == 1


# ---------------------------------------------------------------------------
# cross-process state: state / diff / merge
# ---------------------------------------------------------------------------


def _worker_like_activity(m: MetricsRegistry) -> None:
    m.counter("repro_w_total", labelnames=("k",)).labels(k="x").inc(3)
    m.histogram("repro_w_seconds", labelnames=("stage",)).labels(
        stage="phase1").observe(0.01)


def test_state_diff_merge_round_trip():
    worker = MetricsRegistry()
    before = worker.state()
    _worker_like_activity(worker)
    delta = diff_state(before, worker.state())
    # the delta is what rides home in the result dict — must pickle
    delta = pickle.loads(pickle.dumps(delta))

    coord = MetricsRegistry()
    coord.counter("repro_w_total", labelnames=("k",)).labels(k="x").inc()
    coord.merge_state(delta)
    assert coord.counter(
        "repro_w_total", labelnames=("k",)).labels(k="x").value == 4.0
    h = coord.histogram("repro_w_seconds", labelnames=("stage",)).snapshot()
    assert h[("phase1",)]["count"] == 1


def test_diff_of_identical_states_is_empty():
    m = MetricsRegistry()
    _worker_like_activity(m)
    state = m.state()
    assert diff_state(state, state) == {}
    m2 = MetricsRegistry()
    m2.merge_state({})  # no-op, no error


def test_diff_drops_zero_children():
    m = MetricsRegistry()
    c = m.counter("repro_zero_total", labelnames=("k",))
    c.labels(k="touched")  # created but never incremented
    before = m.state()
    c.labels(k="hot").inc()
    delta = diff_state(before, m.state())
    assert list(delta["counters"]["repro_zero_total"]["children"]) == [("hot",)]


def test_merge_survives_bucket_layout_drift():
    a = MetricsRegistry()
    a.histogram("repro_d_seconds", buckets=(0.1, 1.0)).observe(0.05)
    delta = diff_state({}, a.state())
    b = MetricsRegistry()
    b.histogram("repro_d_seconds", buckets=(0.5,)).observe(0.2)
    # force the drift path: the delta carries (0.1, 1.0) buckets
    delta["histograms"]["repro_d_seconds"]["buckets"] = (0.5,)
    delta["histograms"]["repro_d_seconds"]["children"] = {
        (): {"count": 1, "sum": 0.05, "counts": (1, 0, 0)},
    }
    b.merge_state(delta)
    snap = b.histogram("repro_d_seconds").snapshot()
    assert snap[()]["count"] == 2  # totals kept even when buckets disagree


# ---------------------------------------------------------------------------
# scoping: global, ambient, null
# ---------------------------------------------------------------------------


def test_ambient_defaults_to_global_and_nests():
    assert ambient() is get_registry()
    mine = MetricsRegistry()
    inner = MetricsRegistry()
    with use_registry(mine):
        assert ambient() is mine
        with use_registry(inner):
            assert ambient() is inner
        assert ambient() is mine
    assert ambient() is get_registry()


def test_null_registry_is_inert():
    c = NULL_REGISTRY.counter("repro_nope_total", labelnames=("k",))
    c.labels(k="x").inc()
    c.inc()
    NULL_REGISTRY.gauge("repro_nope").set(9)
    NULL_REGISTRY.histogram("repro_nope_seconds").observe(1.0)
    assert NULL_REGISTRY.render() == "\n"
    assert NULL_REGISTRY.state() == {}
    assert NULL_REGISTRY.families() == []


def test_required_families_is_a_stable_schema():
    # The /metrics page test keys on this exact set; additions are fine,
    # removals are a contract break.
    assert set(REQUIRED_FAMILIES) >= {
        "repro_queue_depth",
        "repro_queue_delay_seconds",
        "repro_jobs_total",
        "repro_http_responses_total",
        "repro_stage_seconds",
        "repro_catalog_events_total",
        "repro_shm_segments",
        "repro_shm_bytes",
        "repro_wire_messages_total",
        "repro_wire_bytes_total",
        "repro_walk_cache_events_total",
        "repro_walk_cache_bytes",
        "repro_dispatcher_respawns_total",
        "repro_breaker_open",
    }
