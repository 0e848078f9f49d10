package testbed

import (
	"bytes"
	"encoding/json"
	"testing"

	"mosquitonet/internal/scenario"
)

// TestScaleShardCount pins the fleet-size → shard-count mapping: shard
// assignment is part of the deterministic output contract, so changing
// these thresholds is a results-affecting change.
func TestScaleShardCount(t *testing.T) {
	cases := map[int]int{
		1: 1, 10: 1, 15: 1, 16: 2, 63: 2, 64: 4, 255: 4, 256: 8, 1000: 8,
		1023: 8, 1024: 16, 10000: 16, 16383: 16, 16384: 32, 65535: 32,
		65536: 64, 100000: 64,
	}
	for n, want := range cases {
		if got := scenario.FleetShards(n); got != want {
			t.Errorf("FleetShards(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestScaleWorkersByteIdentical is the engine's core guarantee on the real
// workload: the worker-pool size changes which goroutine executes a shard,
// never the results. Rows and metrics snapshots must match byte-for-byte.
func TestScaleWorkersByteIdentical(t *testing.T) {
	const n = 100
	baseRow, baseSnap, err := RunScaleFleetWorkers(1996, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if baseRow.ProbesEchoed == 0 || baseRow.CrossFrames == 0 {
		t.Fatalf("workload did not exercise cross-shard traffic: %+v", baseRow)
	}
	baseJSON, _ := json.Marshal(baseRow)
	var baseSnapJSON bytes.Buffer
	if err := baseSnap.WriteJSON(&baseSnapJSON); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		row, snap, err := RunScaleFleetWorkers(1996, n, workers)
		if err != nil {
			t.Fatal(err)
		}
		rowJSON, _ := json.Marshal(row)
		if !bytes.Equal(baseJSON, rowJSON) {
			t.Errorf("workers=%d row differs from workers=1:\n  %s\n  %s", workers, baseJSON, rowJSON)
		}
		var snapJSON bytes.Buffer
		if err := snap.WriteJSON(&snapJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseSnapJSON.Bytes(), snapJSON.Bytes()) {
			t.Errorf("workers=%d metrics snapshot differs from workers=1", workers)
		}
	}
}

// TestCrossWorkerDeterminism drives the parallel experiment end to end:
// every (fleet, workers) row must report identical outputs, and the
// determinism check inside RunParallel must not trip. It also pins the
// provenance fields the BENCH_parallel.json contract promises.
func TestCrossWorkerDeterminism(t *testing.T) {
	res, err := RunParallel(7, []int{64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if !row.Identical {
			t.Errorf("workers=%d row not identical: %+v", row.Workers, row)
		}
		if row.NumCPU < 1 || row.GoMaxProcs < 1 {
			t.Errorf("provenance fields missing: %+v", row)
		}
		if len(row.WorkerUtilization) == 0 {
			t.Errorf("workers=%d row has no utilization readings", row.Workers)
		}
	}
}

// TestScaleRouteCacheHitRate is the acceptance gate for the route-decision
// cache: on the roaming scale workload the cache must serve at least 90%
// of lookups, while still being invalidated by every roam (a suspiciously
// invalidation-free run would mean the cache can serve stale decisions).
func TestScaleRouteCacheHitRate(t *testing.T) {
	row, _, err := RunScaleFleetWorkers(1996, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.RouteCacheHits == 0 || row.RouteCacheMisses == 0 {
		t.Fatalf("cache counters implausible: %+v", row)
	}
	if row.RouteCacheInvalidations == 0 {
		t.Fatal("roaming workload never invalidated the route cache")
	}
	if row.RouteCacheHitRate < 0.90 {
		t.Fatalf("route cache hit rate %.3f < 0.90 (hits %d, misses %d)",
			row.RouteCacheHitRate, row.RouteCacheHits, row.RouteCacheMisses)
	}
	if row.ProbesEchoed == 0 {
		t.Fatal("no probes echoed — hit rate meaningless on a dead workload")
	}
}
