package testbed

import (
	"runtime"
	"testing"

	"mosquitonet/internal/scenario"
)

// The host-footprint benchmark weighs a resident (constructed, not yet
// run) scale fleet. It measures the *marginal* cost of a mobile host by
// building two fleets in the same shard tier and dividing the live-heap
// delta by the host-count delta, so fixed infrastructure (routers, home
// agents, correspondents, trunks) cancels out.
//
// Two metrics are reported:
//
//	bytes/host  — live heap (after GC) attributable to one mobile host,
//	              including its stack, devices, ARP caches, transport
//	              stack, Mobile-IP machinery, metrics registrations, and
//	              its share of the pre-run event queue.
//	allocs/host — heap allocations performed to construct one host.
//
// Both fleet sizes sit in the same scenario.FleetShards tier so the shard
// infrastructure is identical and only the fleet differs.
const (
	footprintSmallFleet = 300
	footprintLargeFleet = 800
)

// weighFleet builds an n-host fleet and returns its live heap bytes
// (after a GC pass, relative to the pre-build heap) and the number of
// allocations construction performed.
func weighFleet(tb testing.TB, spec *scenario.Spec, n int) (liveBytes, mallocs uint64) {
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := scenario.CompileFleet(1996, spec, n)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&mid)
	runtime.GC()
	runtime.ReadMemStats(&after)
	liveBytes = after.HeapAlloc - before.HeapAlloc
	mallocs = mid.Mallocs - before.Mallocs
	w.Close()
	runtime.KeepAlive(w)
	return liveBytes, mallocs
}

// measureHostFootprint returns the marginal bytes/host and allocs/host of
// one mobile host in the scale topology.
func measureHostFootprint(tb testing.TB) (bytesPerHost, allocsPerHost float64) {
	spec := MustScenario("scale")
	smallBytes, smallAllocs := weighFleet(tb, spec, footprintSmallFleet)
	largeBytes, largeAllocs := weighFleet(tb, spec, footprintLargeFleet)
	hosts := float64(footprintLargeFleet - footprintSmallFleet)
	return float64(largeBytes-smallBytes) / hosts, float64(largeAllocs-smallAllocs) / hosts
}

// BenchmarkHostFootprint reports the per-host memory footprint of the
// scale topology. It pins the per-host memory diet by numbers: CI fails
// the run if bytes/host regresses past the budget (see
// TestHostFootprintBudget for the enforced bound).
func BenchmarkHostFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bytesPerHost, allocsPerHost := measureHostFootprint(b)
		b.ReportMetric(bytesPerHost, "bytes/host")
		b.ReportMetric(allocsPerHost, "allocs/host")
	}
	b.ReportMetric(0, "ns/op") // wall time is meaningless here; the metrics above are the result
}

// Budgets for TestHostFootprintBudget. The measured footprint after the
// per-host memory diet (interned addresses, snapshot-time metric
// collectors, lazy host/transport maps, packed ARP tables, self-chaining
// load timers) is ~5.9 KB and ~165 allocs per host; before the diet it
// was ~24.4 KB and ~733 allocs. Host and Iface structs are plain heap
// objects: the slab allocator that once carved them from shared chunks
// saved ~3 allocs per host but kept every finished world reachable. The
// budgets sit ~40% above the measured values — loose enough to absorb
// Go-version and allocator noise, tight enough that reintroducing any one
// of the big per-host costs (a 20-entry metric roster, eagerly-allocated
// maps, a per-packet address formatter) blows through them.
const (
	footprintBytesBudget  = 8192
	footprintAllocsBudget = 230
)

// TestHostFootprintBudget is the memory-diet regression guard: it fails
// if the marginal cost of a mobile host exceeds the budgeted bytes or
// allocations. Skipped under -short because it builds two fleets.
func TestHostFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement builds two fleets; skipped in -short")
	}
	bytesPerHost, allocsPerHost := measureHostFootprint(t)
	t.Logf("footprint: %.0f bytes/host, %.1f allocs/host (budget %d bytes, %d allocs)",
		bytesPerHost, allocsPerHost, footprintBytesBudget, footprintAllocsBudget)
	if bytesPerHost > footprintBytesBudget {
		t.Errorf("bytes/host = %.0f, budget %d", bytesPerHost, footprintBytesBudget)
	}
	if allocsPerHost > footprintAllocsBudget {
		t.Errorf("allocs/host = %.1f, budget %d", allocsPerHost, footprintAllocsBudget)
	}
}
