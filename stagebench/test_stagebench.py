"""Tests of the stage benchmark's own helpers (no workload is run)."""

from __future__ import annotations

import contextlib
import gc
import http.server
import socket
import threading

import numpy as np
import pytest

from stats import fail_ratio, nearest_rank, samples_beyond, tail, timing_summary
from tracing import RowReads, Span, Tracer, covered_length, self_time_by_name, self_times
from workloads import _Client


def _no_span(name, op=None):
    return contextlib.nullcontext()


# -- percentile and sample-count rule ----------------------------------------


def test_nearest_rank_picks_the_ranked_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 1) == 1.0


def test_samples_beyond_counts_the_ranks_above():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(20, 50) == 10


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail(list(range(39))) is None  # p75 leaves 9 beyond
    assert tail(list(range(40)))[0] == 75.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(200)))[0] == 95.0
    assert tail(list(range(1000))) == (99.0, 989)


def test_timing_summary_reports_the_count_and_the_tail_only_when_earned():
    small = timing_summary([3.0, 1.0, 2.0])
    assert small == {"median": 2.0, "n": 3}
    large = timing_summary([float(i) for i in range(100)])
    assert large["n"] == 100
    assert large["median"] == 49.5
    assert (large["tail_percentile"], large["tail"]) == (90.0, 89.0)


# -- self time over nested spans ---------------------------------------------


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_length([(0, 10), (2, 3)]) == 10.0


def test_self_times_subtract_only_direct_children():
    spans = [
        Span("campaign", 0.0, 10.0, None, "c"),
        Span("acquire", 1.0, 5.0, 0, "c"),
        Span("noise", 2.0, 4.0, 1, "c"),
        Span("verify", 6.0, 9.0, 0, "c"),
    ]
    assert self_times(spans) == [3.0, 2.0, 2.0, 3.0]
    totals = self_time_by_name(spans)
    # Self times partition the root interval.
    assert sum(totals.values()) == 10.0


def test_self_times_count_overlapping_children_once_and_clip_them():
    spans = [
        Span("parent", 0.0, 4.0, None, None),
        Span("a", 1.0, 3.0, 0, None),
        Span("b", 2.0, 5.0, 0, None),
    ]
    assert self_times(spans)[0] == 1.0


def test_tracer_nests_spans_and_inherits_the_operation():
    tracer = Tracer()
    with tracer.span("job", op="job-0"):
        with tracer.span("submit"):
            pass
    with tracer.span("loose"):
        pass
    job, submit, loose = tracer.spans
    assert submit.parent == 0 and submit.op == "job-0"
    assert loose.parent is None and loose.op is None
    assert job.start <= submit.start <= submit.end <= job.end
    assert tracer.calls("submit") == 1


# -- rows_read_ratio accounting ----------------------------------------------


def test_rows_read_ratio_counts_distinct_rows_over_generated_ones():
    reads = RowReads()
    acquired = np.zeros((10, 4))
    other = np.zeros((30, 4))
    reads.acquired(acquired)
    reads.acquired(other)
    prefix = acquired[:6]  # a cached prefix view shares its rows
    with reads.reading(prefix):
        reads.selected(np.array([0, 1, 2]))
        reads.selected(np.array([[2, 3], [1, 5]]))
    reads.selected(np.array([7, 8]))  # outside any read: not counted
    assert reads.generated == 40
    assert reads.distinct == 5
    assert reads.ratio == 5 / 40


def test_rows_read_ratio_keeps_the_count_of_a_freed_matrix():
    reads = RowReads()
    acquired = np.zeros((8, 2))
    reads.acquired(acquired)
    with reads.reading(acquired):
        reads.selected(np.array([0, 1, 2, 3]))
    del acquired
    gc.collect()
    assert reads.distinct == 4
    assert reads.ratio == 0.5


def test_rows_read_ratio_of_nothing_acquired_is_zero():
    assert RowReads().ratio == 0.0


# -- fail_ratio accounting ---------------------------------------------------


def test_fail_ratio_is_failed_over_attempted():
    assert fail_ratio(4, 0) == 0.0
    assert fail_ratio(4, 1) == 0.25
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(2, 3)


class _Status500(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = b'{"error": "boom"}'
        self.send_response(500)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_client_counts_refused_connections_and_non_2xx_responses():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    refused = _Client("127.0.0.1", closed_port, _no_span)
    status, body, _ = refused.call("x", "GET", "/")
    assert (status, body) == (0, None)
    assert list(refused.stream("/rows")) == []
    assert (refused.requests, refused.failures) == (2, 2)

    server = http.server.HTTPServer(("127.0.0.1", 0), _Status500)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = _Client("127.0.0.1", server.server_address[1], _no_span)
        status, body, _ = client.call("x", "GET", "/sweeps")
        assert (status, body) == (500, {"error": "boom"})
        assert list(client.stream("/rows")) == []
        assert (client.requests, client.failures) == (2, 2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
