package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
)

func scaleSpec(t *testing.T) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(catalogDir, "scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// fleetOutcome is a run fleet's deterministic outcome.
type fleetOutcome struct {
	events, epochs, cross, sent, echoed, regs uint64
}

// runSilentCampusFleet runs a 64-host fleet whose last campus shard has
// infrastructure but no mobile hosts, and returns its deterministic
// outputs plus the shard set's barrier stats (read before Close).
func runSilentCampusFleet(t *testing.T, workers int) (fleetOutcome, []byte, []sim.ShardStats) {
	t.Helper()
	spec := scaleSpec(t)
	w, err := compileFleet(1996, spec, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Shards.SetWorkers(workers)
	w.RunFor(spec.Topology.Fleet.Duration.D())

	out := fleetOutcome{
		events: w.Shards.Executed(),
		epochs: w.Shards.Epochs(),
		cross:  w.Shards.CrossDelivered(),
	}
	out.sent, out.echoed = w.FleetProbes()
	for _, m := range w.Mobiles {
		out.regs += m.Stats().Registrations
	}
	var snap bytes.Buffer
	if err := metrics.MergedSnapshotFiltered(w.Shards.Now(), func(name string) bool {
		return strings.HasPrefix(name, "sim.")
	}, w.Registries...).WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	stats := make([]sim.ShardStats, len(w.Loops))
	for k := range stats {
		stats[k] = w.Shards.ShardStats(k)
	}
	return out, snap.Bytes(), stats
}

// TestFleetSilentCampus pins the barrier tree's skip path on the real
// topology: a campus shard with no mobile hosts must never participate in
// a barrier — zero waits, zero dispatched events, every epoch skipped —
// and its presence must not disturb byte-identical execution across
// worker counts.
func TestFleetSilentCampus(t *testing.T) {
	base, baseSnap, baseStats := runSilentCampusFleet(t, 1)
	if base.echoed == 0 || base.cross == 0 || base.regs == 0 {
		t.Fatalf("workload did not exercise roaming and cross-shard traffic: %+v", base)
	}

	// At 64 hosts, shards 0..3 are campuses and 4 is the hub; the silent
	// campus is the last one, index 3.
	silent := FleetShards(64) - 1
	st := baseStats[silent]
	if st.BarrierWaits != 0 || st.EventsDispatched != 0 {
		t.Errorf("silent campus shard %d participated: %+v", silent, st)
	}
	if st.EpochsSkipped != base.epochs {
		t.Errorf("silent campus skipped %d of %d epochs", st.EpochsSkipped, base.epochs)
	}
	// The active shards must have carried the whole fleet.
	for k := 0; k < silent; k++ {
		if baseStats[k].EventsDispatched == 0 {
			t.Errorf("active shard %d dispatched no events", k)
		}
	}

	for _, workers := range []int{4, 8} {
		out, snap, stats := runSilentCampusFleet(t, workers)
		if out != base {
			t.Errorf("workers=%d outcome differs from workers=1:\n  %+v\n  %+v", workers, base, out)
		}
		if !bytes.Equal(baseSnap, snap) {
			t.Errorf("workers=%d metrics snapshot differs from workers=1", workers)
		}
		for k := range stats {
			if stats[k] != baseStats[k] {
				t.Errorf("workers=%d shard %d stats %+v, workers=1 %+v", workers, k, stats[k], baseStats[k])
			}
		}
	}
}

// A fleet spec compiled without a size builds its first tier; a fleet
// size outside the schema's bounds is refused.
func TestCompileFleetSizes(t *testing.T) {
	spec := scaleSpec(t)
	w, err := Compile(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Mobiles); got != spec.Topology.Fleet.Tiers[0] {
		t.Errorf("Compile built %d mobiles, want the first tier's %d", got, spec.Topology.Fleet.Tiers[0])
	}
	if got, want := len(w.Loops), FleetShards(len(w.Mobiles))+1; got != want {
		t.Errorf("Compile built %d loops, want %d", got, want)
	}
	w.Close()
	if _, err := CompileFleet(1, spec, 0); err == nil {
		t.Error("CompileFleet accepted an empty fleet")
	}
	if _, err := compileFleet(1, spec, 10, 1); err == nil {
		t.Error("compileFleet silenced every campus shard")
	}
}
