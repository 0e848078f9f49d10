package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
)

// The scale experiment measures the simulator itself rather than the
// paper's protocol: N mobile hosts roam concurrently between two foreign
// subnets while exchanging UDP echo traffic with correspondents. It is
// the regime where per-event and per-packet costs dominate, so it doubles
// as the fleet-scale performance baseline: BenchmarkScaleRoaming drives
// the same harness and reports wall-clock ns/op, B/op, and allocs/op on
// top of the deterministic virtual-time quantities recorded here.
//
// The topology is the scale scenario's fleet
// (testdata/scenarios/scale.json), lowered by scenario.CompileFleet onto
// campus shards joined to a backbone hub by trunks; this file runs it and
// reads the row and the merged sim.* snapshot off the compiled world. The
// shard count is a pure function of the fleet size, so results are
// byte-identical at any worker count, including workers=1.

// ScaleRow is one fleet size's deterministic outcome. Every field derives
// from virtual time and seeded randomness only, so BENCH_scale.json is
// byte-identical across runs with the same seed at any worker count.
type ScaleRow struct {
	Hosts            int     `json:"hosts"`
	Shards           int     `json:"shards"`
	Events           uint64  `json:"events"`
	VirtualSeconds   float64 `json:"virtual_seconds"`
	EventsPerVirtSec float64 `json:"events_per_virtual_second"`
	QueueHighWater   int     `json:"queue_high_water"`
	Epochs           uint64  `json:"epochs"`
	CrossFrames      uint64  `json:"cross_shard_frames"`
	Registrations    uint64  `json:"registrations"`
	ProbesSent       uint64  `json:"probes_sent"`
	ProbesEchoed     uint64  `json:"probes_echoed"`
	Encapsulated     uint64  `json:"encapsulated"`

	RouteCacheHits          uint64  `json:"route_cache_hits"`
	RouteCacheMisses        uint64  `json:"route_cache_misses"`
	RouteCacheInvalidations uint64  `json:"route_cache_invalidations"`
	RouteCacheHitRate       float64 `json:"route_cache_hit_rate"`
}

// ScaleResult is the full scale experiment: one row per fleet size.
type ScaleResult struct {
	Rows   []ScaleRow
	Export *Export
}

func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: concurrent roaming fleets (%v virtual per fleet)\n", MustScenario("scale").Topology.Fleet.Duration)
	fmt.Fprintf(&b, "  %6s  %6s  %10s  %12s  %8s  %6s  %7s  %7s  %7s\n",
		"hosts", "shards", "events", "ev/virt-sec", "queue-hw", "regs", "probes", "echoed", "cache%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d  %6d  %10d  %12.0f  %8d  %6d  %7d  %7d  %6.1f%%\n",
			row.Hosts, row.Shards, row.Events, row.EventsPerVirtSec, row.QueueHighWater,
			row.Registrations, row.ProbesSent, row.ProbesEchoed, 100*row.RouteCacheHitRate)
	}
	return b.String()
}

// RunScale runs the roaming-fleet scale experiment for each fleet size,
// sequentially (workers=1).
func RunScale(seed int64, fleets []int) (*ScaleResult, error) {
	return RunScaleWorkers(seed, fleets, 1)
}

// RunScaleWorkers runs the scale experiment with the given worker-pool
// size. Results are byte-identical at any worker count; only wall-clock
// time may differ.
func RunScaleWorkers(seed int64, fleets []int, workers int) (*ScaleResult, error) {
	res := &ScaleResult{Export: &Export{Experiment: "scale", Seed: seed}}
	for _, n := range fleets {
		row, snap, err := RunScaleFleetWorkers(seed, n, workers)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		res.Export.Snapshots = append(res.Export.Snapshots, snap)
	}
	res.Export.Rows = res.Rows
	return res, nil
}

// RunScaleFleet runs one fleet of n roaming mobile hosts sequentially and
// returns its deterministic row plus a compact metrics snapshot.
func RunScaleFleet(seed int64, n int) (ScaleRow, *metrics.Snapshot, error) {
	return RunScaleFleetWorkers(seed, n, 1)
}

// RunScaleFleetWorkers runs one fleet of n roaming mobile hosts on a
// sharded topology executed by the given number of worker goroutines, and
// returns its deterministic row plus a compact metrics snapshot (loop-
// level metrics only, merged across shards; a full per-host snapshot at
// 1000 hosts would dwarf the export).
func RunScaleFleetWorkers(seed int64, n, workers int) (ScaleRow, *metrics.Snapshot, error) {
	row, snap, _, err := runScaleFleetMeasured(seed, n, workers)
	return row, snap, err
}

// runScaleFleetMeasured is RunScaleFleetWorkers plus the per-worker busy
// wall-clock readings, which the parallel experiment turns into
// utilization provenance. The busy slice is empty for workers=1.
func runScaleFleetMeasured(seed int64, n, workers int) (ScaleRow, *metrics.Snapshot, []time.Duration, error) {
	spec, err := Scenario("scale")
	if err != nil {
		return ScaleRow{}, nil, nil, err
	}
	w, err := scenario.CompileFleet(seed, spec, n)
	if err != nil {
		return ScaleRow{}, nil, nil, err
	}
	defer w.Close()
	w.Shards.SetWorkers(workers)
	w.RunFor(spec.Topology.Fleet.Duration.D())
	return scaleRow(w, n), scaleSnapshot(w, n), w.Shards.WorkerBusy(), nil
}

// scaleRow reads a fleet world's deterministic outcome after its run.
func scaleRow(w *scenario.World, n int) ScaleRow {
	ss := w.Shards
	secs := w.Spec.Topology.Fleet.Duration.D().Seconds()
	row := ScaleRow{
		Hosts:            n,
		Shards:           len(w.Loops),
		Events:           ss.Executed(),
		VirtualSeconds:   secs,
		EventsPerVirtSec: float64(ss.Executed()) / secs,
		QueueHighWater:   ss.QueueHighWater(),
		Epochs:           ss.Epochs(),
		CrossFrames:      ss.CrossDelivered(),
	}
	row.ProbesSent, row.ProbesEchoed = w.FleetProbes()
	for _, m := range w.Mobiles {
		row.Registrations += m.Stats().Registrations
		row.Encapsulated += m.Tunnel().Stats().Encapsulated
	}
	for _, ha := range w.HAs {
		row.Encapsulated += ha.Tunnel().Stats().Encapsulated
	}
	for _, name := range w.HostNames() {
		h, _ := w.Host(name)
		st := h.RouteCacheStats()
		row.RouteCacheHits += st.Hits
		row.RouteCacheMisses += st.Misses
		row.RouteCacheInvalidations += st.Invalidations
	}
	if total := row.RouteCacheHits + row.RouteCacheMisses; total > 0 {
		row.RouteCacheHitRate = float64(row.RouteCacheHits) / float64(total)
	}
	return row
}

// scaleSnapshot merges the per-shard registries into the compact export
// snapshot: loop-level aggregates (sim.loop.*) plus the per-shard barrier
// counters (sim.shard.*). The name filter runs before rows materialize
// (MergedSnapshotFiltered), so a 100k-host fleet never builds the
// hundreds of thousands of per-host rows it is about to throw away.
func scaleSnapshot(w *scenario.World, n int) *metrics.Snapshot {
	snap := metrics.MergedSnapshotFiltered(w.Shards.Now(), func(name string) bool {
		return strings.HasPrefix(name, "sim.")
	}, w.Registries...)
	snap.Name = fmt.Sprintf("scale-%dhosts", n)
	return snap
}
