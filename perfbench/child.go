package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// outDir holds the traced run's artifacts, relative to the directory the
// benchmark runs in.
const outDir = ".bench_build/perfbench"

// readyLine is what a child prints once set-up is done; the parent times
// set-up from starting the child to reading it.
const readyLine = "ready"

// report is a child's result, sent to the parent as one JSON line.
type report struct {
	Metrics   map[string]float64 `json:"metrics"`
	Tails     []tail             `json:"tails"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Problems are broken determinism checks: the run is not correct.
	Problems []string `json:"problems"`
	// Failures lists each failed job once, as "name: reason".
	Failures  []string `json:"failures"`
	Digest    string   `json:"digest"`
	Jobs      int      `json:"jobs_per_pass"`
	Passes    int      `json:"passes"`
	Artifacts []string `json:"artifacts"`
}

// runChild sets the workload up, signals readiness, and in run mode
// measures it and writes its report.
func runChild(o options, out io.Writer) error {
	w, _ := findWorkload(o.workload)
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	m := &meter{spans: spans}
	m.begin(0, "setup")
	p, err := w.setup(m, o.seed)
	m.finish()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if _, err := fmt.Fprintln(out, readyLine); err != nil {
		return err
	}
	if o.child == "setup" {
		return nil
	}
	var rep *report
	if o.trace {
		rep, err = tracedRun(o, p, spans)
	} else {
		rep, err = timedRun(o, p)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(rep)
}

// phase is the outcome of running a plan's jobs in complete passes.
// Every pass runs the same jobs, so a job whose output differs from its
// first pass has broken determinism.
type phase struct {
	jobMS             []float64
	attempted, failed int
	failures          map[string]string // job name -> first failure
	mismatches        []string
	first             []jobResult // pass 1, in job order
	digests           [][sha256.Size]byte
	passes            int

	// Cost of the jobs that exported an event count.
	allocs, bytes, events uint64
	elapsed               time.Duration
}

func runPhase(jobs []job, m *meter, passes int, seq *int) *phase {
	ph := &phase{failures: map[string]string{}}
	for ph.passes < passes {
		// Each pass starts from a collected heap, so a pass is not charged
		// for collecting the previous one's garbage, and peak RSS reflects
		// one pass's working set rather than when a collection happened
		// to run.
		runtime.GC()
		for i, j := range jobs {
			*seq++
			m.begin(*seq, j.name)
			r := j.run(m)
			m.finish()
			ph.record(i, j.name, r, m)
		}
		ph.passes++
	}
	return ph
}

func (ph *phase) record(i int, name string, r jobResult, m *meter) {
	ph.jobMS = append(ph.jobMS, float64(m.elapsed.Nanoseconds())/1e6)
	ph.attempted++
	d := sha256.Sum256(r.export)
	if ph.passes == 0 {
		ph.first = append(ph.first, r)
		ph.digests = append(ph.digests, d)
	} else if d != ph.digests[i] && r.err == nil {
		r.err = fmt.Errorf("output differs from pass 1")
		ph.mismatches = append(ph.mismatches, fmt.Sprintf("%s: output of pass %d differs from pass 1", name, ph.passes+1))
	}
	if r.err != nil {
		ph.failed++
		if _, seen := ph.failures[name]; !seen {
			ph.failures[name] = r.err.Error()
		}
	}
	if r.events > 0 {
		ph.allocs += m.allocs
		ph.bytes += m.bytes
		ph.events += r.events
		ph.elapsed += m.elapsed
	}
}

// digest hashes every job's export from the first pass, in job order.
func (ph *phase) digest() string {
	h := sha256.New()
	for _, r := range ph.first {
		h.Write(r.export)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

func (ph *phase) fill(rep *report, jobs []job) {
	rep.Attempted += ph.attempted
	rep.Failed += ph.failed
	rep.Problems = append(rep.Problems, ph.mismatches...)
	rep.Jobs = len(jobs)
	rep.Passes += ph.passes
	rep.Digest = ph.digest()
	if rep.Failures == nil {
		for _, j := range jobs {
			if reason, ok := ph.failures[j.name]; ok {
				rep.Failures = append(rep.Failures, j.name+": "+reason)
			}
		}
	}
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(o options, p *plan) (*report, error) {
	seq := 0
	ph := runPhase(p.jobs, &meter{}, o.passes(), &seq)
	rep := &report{Metrics: map[string]float64{}}
	ph.fill(rep, p.jobs)

	rep.Metrics["job_ms_p50"] = median(ph.jobMS)
	if t, ok := tailOf("job_ms_tail", ph.jobMS); ok {
		rep.Metrics[t.Name] = t.Value
		rep.Tails = append(rep.Tails, t)
	}
	rep.Metrics["fail_frac"] = float64(ph.failed) / float64(ph.attempted)
	if ph.events > 0 {
		rep.Metrics["allocs_per_event"] = float64(ph.allocs) / float64(ph.events)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.Metrics["peak_rss_mb"] = rss

	// Virtual-time outcomes come from the first pass: they are
	// deterministic, so every later pass repeats them.
	var sent, lost, regSum, regCount uint64
	var blackouts []float64
	for _, r := range ph.first {
		sent += r.sent
		lost += r.lost
		regSum += r.regSumNS
		regCount += r.regCount
		blackouts = append(blackouts, r.blackouts...)
	}
	if sent > 0 {
		rep.Metrics["virt_loss_frac"] = float64(lost) / float64(sent)
	}
	if regCount > 0 {
		rep.Metrics["virt_reg_ms_mean"] = float64(regSum) / float64(regCount) / 1e6
	}
	if len(blackouts) > 0 {
		rep.Metrics["virt_blackout_ms_p50"] = median(blackouts)
		if t, ok := tailOf("virt_blackout_ms_tail", blackouts); ok {
			rep.Metrics[t.Name] = t.Value
			rep.Tails = append(rep.Tails, t)
		}
	}
	return rep, nil
}

// tracedRun runs the jobs twice over: an untraced phase, then a phase
// under the CPU profiler with spans recorded. Both phases must give the
// same outputs. It reports the per-layer metrics.
func tracedRun(o options, p *plan, spans *spanLog) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	seq := 0

	rt0 := readRuntime()
	half := max(1, o.passes()/2)
	plain := runPhase(p.jobs, &meter{}, half, &seq)
	rt1 := readRuntime()
	plain.fill(rep, p.jobs)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m := &meter{spans: spans}
	traced := runPhase(p.jobs, m, half, &seq)
	pprof.StopCPUProfile()
	traced.fill(rep, p.jobs)
	if traced.digest() != plain.digest() {
		rep.Problems = append(rep.Problems, "traced run's digest differs from the untraced run's")
	}
	if p.tracedExt != nil {
		extra, problems := p.tracedExt(m, plain.digests)
		rep.Problems = append(rep.Problems, problems...)
		for k, v := range extra {
			rep.Metrics[k] = v
		}
	}

	layerCounts(rep.Metrics, plain.first)
	if plain.events > 0 {
		rep.Metrics["sim.ns_per_event"] = float64(plain.elapsed.Nanoseconds()) / float64(plain.events)
		rep.Metrics["runtime.alloc_bytes_per_event"] = float64(plain.bytes) / float64(plain.events)
	}
	gc, used := rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt1.idleCPU)-(rt0.totalCPU-rt0.idleCPU)
	if used > 0 {
		rep.Metrics["runtime.gc_cpu_frac"] = gc / used
	}
	rep.Metrics["runtime.gc_cycles_per_job"] = float64(rt1.gcCycles-rt0.gcCycles) / float64(plain.attempted)
	rep.Metrics["bench.trace_overhead_frac"] = median(traced.jobMS)/median(plain.jobMS) - 1

	samples, err := readCPUProfile(bytes.NewReader(prof.Bytes()))
	if err != nil {
		return nil, err
	}
	for layer, frac := range attribute(samples) {
		rep.Metrics[layer+".self_frac"] = frac
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	profPath, spansPath := base+"-cpu.pprof", base+"-spans.jsonl"
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := spans.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	rep.Artifacts = []string{profPath, spansPath}
	return rep, nil
}

// layerCounts averages the per-layer counters over the jobs that
// exported them and derives the ratio metrics. A counter no job exported
// stays absent.
func layerCounts(out map[string]float64, results []jobResult) {
	sums := map[string]float64{}
	n := 0
	for _, r := range results {
		if r.counts == nil {
			continue
		}
		n++
		for k, v := range r.counts {
			sums[k] += v
		}
	}
	for k, v := range sums {
		if def, ok := lookupMetric(k); ok && def.traced {
			out[k] = v / float64(n)
		}
	}
	for name, nd := range ratioDefs {
		if den, ok := sums[nd[1]]; ok && den > 0 {
			out[name] = sums[nd[0]] / den
		}
	}
}

type runtimeReading struct {
	gcCPU, totalCPU, idleCPU float64
	gcCycles                 uint64
}

func readRuntime() runtimeReading {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	rtmetrics.Read(s)
	return runtimeReading{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		idleCPU:  s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
