package testbed

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
)

// fleetSnapshotSHA256 pins the full, unfiltered registry snapshot of the
// 100-host scale fleet at seed 1996 after its spec duration: every
// per-device link counter (tx/rx, drop_filter, drop_down), every network's
// delivered count, and every stack, ARP, tunnel and mobile-IP row.
// BENCH_scale.json keeps only the sim.* rows, so this is what holds the
// link layer's accounting to its values at fleet scale.
const (
	fleetSnapshotSHA256 = "0728bd93d1b0b4c714f6f90f74a73652037d253790f8f6b9ff21f479ec1c9dfb"
	fleetSnapshotBytes  = 1279866
)

func TestFleetSnapshotGolden(t *testing.T) {
	spec, err := Scenario("scale")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		w, err := scenario.CompileFleet(1996, spec, 100)
		if err != nil {
			t.Fatal(err)
		}
		w.Shards.SetWorkers(workers)
		w.RunFor(spec.Topology.Fleet.Duration.D())
		var buf bytes.Buffer
		all := func(string) bool { return true }
		err = metrics.MergedSnapshotFiltered(w.Shards.Now(), all, w.Registries...).WriteJSON(&buf)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != fleetSnapshotSHA256 || buf.Len() != fleetSnapshotBytes {
			t.Errorf("workers=%d: snapshot sha256 %s (%d bytes), want %s (%d bytes)",
				workers, got, buf.Len(), fleetSnapshotSHA256, fleetSnapshotBytes)
		}
	}
}
