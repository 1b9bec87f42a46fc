package main

import (
	"math"
	"testing"
	"time"

	"kbharvest/perfbench/bench"
)

var t0 = time.Unix(0, 0)

func at(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }

func TestCovered(t *testing.T) {
	spans := []span{
		{Start: at(0), End: at(30)},   // sticks out before the window
		{Start: at(20), End: at(50)},  // overlaps the first
		{Start: at(60), End: at(70)},  // alone
		{Start: at(65), End: at(200)}, // sticks out after it
	}
	if got, want := covered(at(10), at(100), spans), 80*time.Microsecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

// TestSpanMetrics parents each proxy span to the request in flight and
// takes a request's self time as its span minus the union of its RPCs.
func TestSpanMetrics(t *testing.T) {
	ops := []bench.Op{
		{Sent: at(0), Done: at(100), Bytes: 10, TookUS: 90},
		{Sent: at(200), Done: at(300), Bytes: 30, TookUS: 90},
	}
	rpcs := []span{
		{Name: "shard1 /query", Start: at(40), End: at(80), Bytes: 5, TookUS: 4},
		{Name: "shard0 /estimate", Start: at(10), End: at(20), Bytes: 5},
		{Name: "shard0 /query", Start: at(30), End: at(60), Bytes: 5, TookUS: 6},
		{Name: "shard0 /query", Start: at(150), End: at(160)}, // between requests: dropped
		{Name: "shard1 /query", Start: at(210), End: at(230), Bytes: 5, TookUS: 10},
	}
	rep := &bench.Report{}
	spans := spanMetrics(rep, ops, rpcs)
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 2 requests and 4 RPCs", len(spans))
	}
	for _, s := range spans[2:] {
		want := 1
		if s.Start.After(at(200)) {
			want = 2
		}
		if s.Parent != want {
			t.Errorf("%s at %v: parent %d, want %d", s.Name, s.Start.Sub(t0), s.Parent, want)
		}
	}
	// Request 1 is 100 µs with RPCs covering 10-20 and 30-80; request 2
	// is 100 µs with 210-230 covered.
	for name, want := range map[string]float64{
		"router.rpcs_per_query":          1.5,
		"router.estimate_rpcs_per_query": 0.5,
		"router.self_ms":                 (40 + 80) / 2.0 / 1000,
		"shard.rpc_ms_per_query":         (40 + 10 + 30 + 20) / 2.0 / 1000,
		"shard.took_coverage":            20.0 / 90,
		"router.took_coverage":           180.0 / 200,
		"wire.shard_bytes_per_query":     10,
		"wire.client_bytes_per_query":    20,
	} {
		if got := rep.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
