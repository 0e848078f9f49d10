package testbed

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The scenario compiler must be a pure refactor of the hand-written
// experiment builders: the exports of the spec-driven handoff,
// loadedhandoff, and scale drivers are pinned byte-for-byte against the
// checked-in bench/ artifacts and, for the scale experiment's 10- and
// 100-host tiers, a golden captured immediately before the refactor (same
// seed, workers 1 and 4 for the sharded experiment).

var (
	benchDir          = filepath.Join("..", "..", "bench")
	prerefactorGolden = filepath.Join("..", "..", "testdata", "golden", "prerefactor")
)

func goldenBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkGolden(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := goldenBytes(t, path); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s diverged from the golden (%d bytes vs %d)", path, buf.Len(), len(want))
	}
}

func TestScenarioCompileEquivalence(t *testing.T) {
	t.Run("handoff", func(t *testing.T) {
		res, err := RunHandoff(1996)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join(benchDir, "BENCH_handoff.json"), res.Export.WriteJSON)
		checkGolden(t, filepath.Join(benchDir, "BENCH_handoff_spans.jsonl"), res.Tracer.WriteSpansJSONL)
		checkGolden(t, filepath.Join(benchDir, "BENCH_handoff_trace.json"), res.Tracer.WriteChromeTrace)
	})
	t.Run("loadedhandoff", func(t *testing.T) {
		res, err := RunLoadedHandoff(1996)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join(benchDir, "BENCH_loadedhandoff.json"), res.Export.WriteJSON)
	})
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "scale-workers1", 4: "scale-workers4"}[workers], func(t *testing.T) {
			res, err := RunScaleWorkers(1996, []int{10, 100}, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join(prerefactorGolden, "BENCH_scale.json"), res.Export.WriteJSON)
		})
	}
}

// TestScale1000HostsPinned pins the barrier-grouped tier: at 1000 hosts
// the fleet spans 8 campus shards in one barrier group plus the hub, and
// its row and snapshot must match the 1000-host entries of the checked-in
// bench/BENCH_scale.json at workers 1 and 4.
func TestScale1000HostsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 1000-host fleets; skipped in -short")
	}
	var bench struct {
		Snapshots []json.RawMessage `json:"snapshots"`
		Rows      []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(goldenBytes(t, filepath.Join(benchDir, "BENCH_scale.json")), &bench); err != nil {
		t.Fatal(err)
	}
	const tier = 2 // rows are 10, 100, 1000, 10000, 100000 hosts
	compact := func(b []byte) []byte {
		var buf bytes.Buffer
		if err := json.Compact(&buf, b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wantRow, wantSnap := compact(bench.Rows[tier]), compact(bench.Snapshots[tier])
	for _, workers := range []int{1, 4} {
		res, err := RunScaleWorkers(1996, []int{1000}, workers)
		if err != nil {
			t.Fatal(err)
		}
		row, err := json.Marshal(res.Rows[0])
		if err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(res.Export.Snapshots[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row, wantRow) {
			t.Errorf("workers=%d 1000-host row diverged from bench/BENCH_scale.json:\n  got  %s\n  want %s", workers, row, wantRow)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("workers=%d scale-1000hosts snapshot diverged from bench/BENCH_scale.json", workers)
		}
	}
}

// Two same-(seed, n) sweeps must generate identical variants and produce
// identical exports.
func TestSweepDeterminism(t *testing.T) {
	run := func() []byte {
		res, err := RunSweep(1996, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("sweep exports diverged between same-seed runs")
	}
	if len(a) == 0 {
		t.Error("sweep produced no rows")
	}
}

// The address variables experiment code uses must stay pinned to the
// figure5 spec they mirror.
func TestFigure5SpecMatches(t *testing.T) {
	spec := MustScenario("figure5")
	top := &spec.Topology
	wantPrefix := map[string]string{
		"home": HomePrefix.String(), "dept": DeptPrefix.String(),
		"radio": RadioPrefix.String(), "campus": CampusPrefix.String(), "slow": SlowPrefix.String(),
	}
	for i := range top.Subnets {
		s := &top.Subnets[i]
		if want, ok := wantPrefix[s.Name]; ok && s.Prefix != want {
			t.Errorf("subnet %s prefix = %s, want %s", s.Name, s.Prefix, want)
		}
	}
	if top.Mobiles[0].HomeAddr != MHHomeAddr.String() {
		t.Errorf("mobile home addr = %s, want %s", top.Mobiles[0].HomeAddr, MHHomeAddr)
	}
	if top.Mobiles[0].HomeAgent != RouterHomeAddr.String() {
		t.Errorf("mobile home agent = %s, want %s", top.Mobiles[0].HomeAgent, RouterHomeAddr)
	}
	var chFound bool
	for i := range top.Hosts {
		if top.Hosts[i].Name == "ch" {
			chFound = true
			if top.Hosts[i].Addr != CHAddr.String() {
				t.Errorf("ch addr = %s, want %s", top.Hosts[i].Addr, CHAddr)
			}
		}
	}
	if !chFound {
		t.Error("figure5 spec has no correspondent host \"ch\"")
	}
}
