package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   int // per mille; 0 = no tail
		beyond int
	}{
		{9, 0, 0},
		{99, 0, 0},
		{100, 900, 10},
		{199, 900, 19},
		{200, 950, 10},
		{999, 950, 49},
		{1000, 990, 10},
		{9999, 990, 99},
		{10000, 999, 10},
	} {
		pm, ok := tailPerMille(tc.n)
		if !ok {
			pm = 0
		}
		if pm != tc.want {
			t.Errorf("n=%d: tail p%g, want p%g", tc.n, float64(pm)/10, float64(tc.want)/10)
			continue
		}
		if ok && tc.n-rank(tc.n, pm) != tc.beyond {
			t.Errorf("n=%d: %d samples beyond p%g, want %d", tc.n, tc.n-rank(tc.n, pm), float64(pm)/10, tc.beyond)
		}
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	tl, ok := tailOf("x_tail", xs)
	if !ok || tl.Value != 90 || tl.Samples != 100 || tl.String() != "p90 of 100 samples" {
		t.Errorf("tailOf(1..100) = %+v (%s), %v; want p90 = 90 of 100 samples", tl, tl, ok)
	}
	if _, ok := tailOf("x_tail", xs[:99]); ok {
		t.Error("99 samples gave a tail; want none")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestAttributeInnermostLayerFrame(t *testing.T) {
	samples := []cpuSample{
		// Allocation inside ip, called from stack: belongs to ip.
		{[]string{"runtime.mallocgc", "mosquitonet/internal/ip.Unmarshal", "mosquitonet/internal/stack.(*Host).Input", "main.main"}, 4},
		// Generic instantiation names keep their package prefix.
		{[]string{"mosquitonet/internal/pipeline.(*Chain[go.shape.*uint8]).Run", "mosquitonet/internal/stack.(*Host).Output"}, 2},
		// No repo frame at all: GC workers and the scheduler.
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 3},
		// Only the benchmark's own frames.
		{[]string{"crypto/sha256.block", "main.(*phase).digest", "main.main"}, 1},
		// Repo packages outside the layer list.
		{[]string{"mosquitonet/internal/dns.Parse", "mosquitonet/internal/mip.(*MobileHost).Step"}, 1},
		{[]string{"mosquitonet/internal/analysis/framework.Run"}, 1},
	}
	got := attribute(samples)
	want := map[string]float64{"ip": 4, "pipeline": 2, "runtime": 3, "bench": 1, "other": 2}
	sum := 0.0
	for _, b := range selfBuckets {
		v, ok := got[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		if math.Abs(v-want[b]/12) > 1e-12 {
			t.Errorf("%s.self_frac = %v, want %v", b, v, want[b]/12)
		}
		sum += v
	}
	if len(got) != len(selfBuckets) {
		t.Errorf("got %d buckets, want %d", len(got), len(selfBuckets))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self fractions sum to %v, want 1", sum)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestReadCPUProfileDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := readCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.weight
		for _, fn := range s.frames {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.weight
				break
			}
		}
	}
	if total == 0 || inSpin == 0 {
		t.Fatalf("decoded %d samples (weight %d, %d in spin); want samples inside spin", len(samples), total, inSpin)
	}
	if _, err := readCPUProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestFailuresCountedNotAborting(t *testing.T) {
	calls := 0
	jobs := []job{
		{"ok", func(m *meter) jobResult {
			m.timed("ok", func() {})
			return jobResult{export: []byte("same"), events: 10}
		}},
		{"broken", func(m *meter) jobResult {
			return jobResult{export: []byte("error text"), err: errors.New("boom")}
		}},
		{"flaky", func(m *meter) jobResult {
			calls++
			return jobResult{export: []byte{byte(calls)}, events: 5}
		}},
	}
	seq := 0
	ph := runPhase(jobs, &meter{}, 3, &seq)
	if ph.attempted != 9 || ph.passes != 3 || seq != 9 {
		t.Fatalf("attempted %d jobs in %d passes (seq %d); want 9 in 3", ph.attempted, ph.passes, seq)
	}
	// broken fails every pass; flaky fails the two passes whose output
	// differs from pass 1.
	if ph.failed != 5 {
		t.Errorf("failed = %d, want 5", ph.failed)
	}
	if len(ph.mismatches) != 2 {
		t.Errorf("mismatches = %q, want two for flaky", ph.mismatches)
	}
	rep := &report{Metrics: map[string]float64{}}
	ph.fill(rep, jobs)
	want := []string{"broken: boom", "flaky: output differs from pass 1"}
	if strings.Join(rep.Failures, "|") != strings.Join(want, "|") {
		t.Errorf("failures = %q, want %q", rep.Failures, want)
	}
	if rep.Attempted != 9 || rep.Failed != 5 || len(rep.Problems) != 2 {
		t.Errorf("report attempted %d failed %d problems %d; want 9, 5, 2", rep.Attempted, rep.Failed, len(rep.Problems))
	}
	if ph.events != 3*10+3*5 {
		t.Errorf("events = %d, want %d (errored jobs excluded)", ph.events, 3*10+3*5)
	}
}

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range catalog {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	for name := range ratioDefs {
		if _, ok := lookupMetric(name); !ok {
			t.Errorf("ratio %s is not in the catalog", name)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	listed := map[string]bool{}
	check := func(name, unit, better string, traced bool) {
		listed[name] = true
		def, ok := lookupMetric(name)
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json metric %s is not in the catalog", name)
		case !def.gated || def.traced != traced || def.unit != unit || def.better != better:
			t.Errorf("BENCHMARK.json metric %s (%s, %s, traced=%v) disagrees with the catalog %+v", name, unit, better, traced, def)
		}
	}
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	for _, m := range catalog {
		if m.gated && !listed[m.name] {
			t.Errorf("gated metric %s missing from BENCHMARK.json", m.name)
		}
	}
	if !listed["setup_s"] {
		t.Error("BENCHMARK.json must list setup_s")
	}
}
