package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/testbed"
)

// jobResult is what the benchmark reads from one job's public output.
type jobResult struct {
	export []byte // the job's exported JSON, or its error text; hashed into the digest
	err    error  // an error returned or an invariant broken: the job failed

	events     uint64 // simulation events dispatched; 0 when the job exported nothing
	sent, lost uint64 // application packets or messages (virtual time)
	regSumNS   uint64
	regCount   uint64
	blackouts  []float64 // virtual ms, one per (flow, window) pair

	// counts holds per-layer counters from the job's export, keyed by
	// metric name or by a ratio's numerator/denominator key (ratioDefs).
	counts map[string]float64
}

// job is one closed-loop unit of work: one call sequence into the program.
type job struct {
	name string
	run  func(m *meter) jobResult
}

// plan is a workload after set-up: its jobs and the traced run's extra
// step, which returns per-layer metrics and broken determinism checks.
type plan struct {
	jobs      []job
	tracedExt func(m *meter, digests [][sha256.Size]byte) (map[string]float64, []string)
}

type workload struct {
	name  string
	setup func(m *meter, seed int64) (*plan, error)
	// passSeconds is how long one pass over the job list takes on the
	// reference machine; it converts --seconds into a pass count.
	passSeconds float64
}

// The workloads, and why each was chosen:
//   - fleet: the steady-state UDP datapath at scale with the packet log
//     off; link fan-out, the sim heap, stack chains, ARP, tunnel and mip
//     registration do the work.
//   - loaded: five handoffs under TCP-carried MQTT QoS 1 plus HTTP;
//     transport, app codecs, the mip handoff machinery, tracer spans and
//     the packet log do the work, and the paper's disruption metrics live
//     here.
//   - sweep: hundreds of tiny generated worlds, dominated by validation,
//     compilation, host construction, metric registration and teardown,
//     plus DHCP and faults; work moved into construction shows here.
var workloads = []workload{
	{"fleet", setupFleet, 2.8},
	{"loaded", setupLoaded, 1.3},
	{"sweep", setupSweep, 1.0},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ratioDefs derives ratio metrics from summed counters: name -> {numerator, denominator}.
var ratioDefs = map[string][2]string{
	"link.filter_rejects_per_tx": {"link.device.drop_filter", "link.network.transmitted"},
	"stack.route_cache_hit_frac": {"stack.route_cache.hits", "stack.route_cache.lookups"},
	"mip.policy_hit_frac":        {"mip.policy.hits", "mip.policy.lookups"},
}

// fleetHosts is the fleet size: 16 campus shards plus the hub, about 250
// mobiles per Ethernet segment.
const fleetHosts = 4000

func setupFleet(m *meter, seed int64) (*plan, error) {
	// Warm-up on a small fleet: pages in the datapath code and grows the
	// heap without paying for a full job.
	if r := runFleet(m, seed, 64, 1); r.err != nil {
		return nil, fmt.Errorf("fleet warm-up: %w", r.err)
	}
	p := &plan{jobs: []job{{
		name: fmt.Sprintf("fleet-%d", fleetHosts),
		run:  func(m *meter) jobResult { return runFleet(m, seed, fleetHosts, 1) },
	}}}
	// The traced run repeats the job at workers=2, which must give the
	// same row and snapshot as workers=1.
	p.tracedExt = func(m *meter, digests [][sha256.Size]byte) (map[string]float64, []string) {
		m.begin(-1, "fleet-workers2")
		r := runFleet(m, seed, fleetHosts, 2)
		m.finish()
		if r.err != nil {
			return nil, []string{fmt.Sprintf("fleet at workers=2: %v", r.err)}
		}
		if sha256.Sum256(r.export) != digests[0] {
			return nil, []string{"fleet row at workers=2 differs from workers=1"}
		}
		return nil, nil
	}
	return p, nil
}

func runFleet(m *meter, seed int64, hosts, workers int) jobResult {
	var row testbed.ScaleRow
	var snap *metrics.Snapshot
	var err error
	m.timed("testbed.RunScaleFleetWorkers", func() { row, snap, err = testbed.RunScaleFleetWorkers(seed, hosts, workers) })
	if err != nil {
		return jobResult{export: []byte(err.Error()), err: err}
	}
	var buf bytes.Buffer
	m.span("export", func() {
		var b []byte
		if b, err = json.Marshal(row); err == nil {
			buf.Write(b)
			err = snap.WriteJSON(&buf)
		}
	})
	if err != nil {
		return jobResult{export: []byte(err.Error()), err: fmt.Errorf("export: %w", err)}
	}
	r := jobResult{
		export: buf.Bytes(),
		events: row.Events,
		sent:   row.ProbesSent,
		counts: map[string]float64{
			"sim.events":                float64(row.Events),
			"sim.queue_high_water":      float64(row.QueueHighWater),
			"sim.epochs":                float64(row.Epochs),
			"sim.cross_frames":          float64(row.CrossFrames),
			"sim.epochs_skipped":        sumMetric(snap, "sim.shard.epochs_skipped"),
			"sim.barrier_waits":         sumMetric(snap, "sim.shard.barrier_waits"),
			"stack.route_cache.hits":    float64(row.RouteCacheHits),
			"stack.route_cache.lookups": float64(row.RouteCacheHits + row.RouteCacheMisses),
			"tunnel.encapsulated":       float64(row.Encapsulated),
			"mip.registrations":         float64(row.Registrations),
		},
	}
	if row.ProbesEchoed > row.ProbesSent {
		r.err = fmt.Errorf("%d probes echoed but only %d sent", row.ProbesEchoed, row.ProbesSent)
	} else {
		r.lost = row.ProbesSent - row.ProbesEchoed
	}
	return r
}

// loadedJobs is the number of distinct seeds in one loaded pass.
const loadedJobs = 16

func setupLoaded(m *meter, seed int64) (*plan, error) {
	// Warm-up on a seed just past the job list.
	if r := runLoaded(m, seed+loadedJobs); r.err != nil {
		return nil, fmt.Errorf("loaded warm-up: %w", r.err)
	}
	p := &plan{}
	for i := int64(0); i < loadedJobs; i++ {
		s := seed + i
		p.jobs = append(p.jobs, job{name: fmt.Sprintf("loaded-%d", s), run: func(m *meter) jobResult { return runLoaded(m, s) }})
	}
	return p, nil
}

func runLoaded(m *meter, seed int64) jobResult {
	var res *testbed.LoadedHandoffResult
	var err error
	m.timed("testbed.RunLoadedHandoff", func() { res, err = testbed.RunLoadedHandoff(seed) })
	if err != nil {
		return jobResult{export: []byte(err.Error()), err: err}
	}
	r := exportResult(m, res.Export)
	if r.err != nil {
		return r
	}
	rows := res.Rows
	r.counts["app.broker_publishes"] = float64(rows.BrokerStats.Publishes)
	r.counts["app.http_requests"] = float64(rows.HTTPServerStats.Requests)
	r.counts["app.drop_bad_frame"] = float64(rows.BrokerStats.DropBadFrame)
	r.counts["trace.dropped_events"] = float64(rows.DroppedEvents)
	r.counts["trace.dropped_spans"] = float64(rows.DroppedSpans)
	for _, f := range rows.Flows {
		if f.PacketsReceived > f.PacketsSent {
			r.err = fmt.Errorf("flow %s: %d received but only %d sent", f.Flow, f.PacketsReceived, f.PacketsSent)
		}
		r.sent += uint64(f.PacketsSent)
		r.lost += uint64(f.PacketsLost)
		for _, w := range f.Handoffs {
			r.blackouts = append(r.blackouts, float64(w.BlackoutNS)/1e6)
		}
	}
	if !rows.QoS1ExactlyOnce {
		r.err = fmt.Errorf("QoS 1 exactly-once broken")
	}
	return r
}

// sweepVariants is the number of generated variants in one sweep pass.
const sweepVariants = 400

func setupSweep(m *meter, seed int64) (*plan, error) {
	base, err := testbed.Scenario("sweep-base")
	if err != nil {
		return nil, err
	}
	var variants []*scenario.Spec
	generated := m.elapsed
	m.timed("scenario.GenerateSweep", func() { variants, err = scenario.GenerateSweep(base, seed, sweepVariants) })
	if err != nil {
		return nil, err
	}
	generated = m.elapsed - generated
	// Warm-up on the first variant; its outcome is checked by the jobs.
	runSweepVariant(m, seed, variants[0])

	p := &plan{}
	for _, v := range variants {
		p.jobs = append(p.jobs, job{name: v.Name, run: func(m *meter) jobResult { return runSweepVariant(m, seed, v) }})
	}
	// The traced run times each variant's compilation on its own: the
	// world is built, then closed unused. A variant that fails to compile
	// also fails as a job, where it is counted.
	p.tracedExt = func(m *meter, _ [][sha256.Size]byte) (map[string]float64, []string) {
		var ms []float64
		for i, v := range variants {
			m.begin(-1-i, "compile "+v.Name)
			var w *scenario.World
			var err error
			m.timed("scenario.Compile", func() { w, err = scenario.Compile(seed, v) })
			if err == nil {
				m.span("scenario.World.Close", w.Close)
			}
			m.finish()
			ms = append(ms, float64(m.elapsed.Nanoseconds())/1e6)
		}
		return map[string]float64{
			"scenario.generate_ms":    float64(generated.Nanoseconds()) / 1e6 / sweepVariants,
			"scenario.compile_ms_p50": median(ms),
		}, nil
	}
	return p, nil
}

func runSweepVariant(m *meter, seed int64, v *scenario.Spec) jobResult {
	var sr *testbed.ScenarioResult
	var err error
	m.timed("testbed.RunScenarioProbe", func() { sr, err = testbed.RunScenarioProbe(seed, v) })
	if err != nil {
		return jobResult{export: []byte(err.Error()), err: err}
	}
	r := exportResult(m, sr.Export)
	if r.err != nil {
		return r
	}
	if len(sr.Rows.Flows) == 0 {
		r.err = fmt.Errorf("no probe flow scored")
		return r
	}
	for _, f := range sr.Rows.Flows {
		if f.PacketsReceived > f.PacketsSent {
			r.err = fmt.Errorf("flow %s: %d received but only %d sent", f.Flow, f.PacketsReceived, f.PacketsSent)
		}
		r.sent += uint64(f.PacketsSent)
		r.lost += uint64(f.PacketsLost)
		for _, w := range f.Windows {
			r.blackouts = append(r.blackouts, float64(w.BlackoutNS)/1e6)
		}
	}
	// RunSweep's unattributed-loss rule: loss outside the attributed
	// windows, beyond one straggler per window, is a simulator defect.
	f := sr.Rows.Flows[0]
	attributed := 0
	for _, w := range f.Windows {
		attributed += w.PacketsLost
	}
	if f.PacketsLost > attributed+len(f.Windows) {
		r.err = fmt.Errorf("%d packets lost but only %d attributed to %d windows", f.PacketsLost, attributed, len(f.Windows))
	}
	return r
}

// exportResult serializes a job's export for the digest and reads the
// per-layer counters and virtual-time outcomes its snapshot carries.
func exportResult(m *meter, e *testbed.Export) jobResult {
	var buf bytes.Buffer
	var err error
	m.span("testbed.Export.WriteJSON", func() { err = e.WriteJSON(&buf) })
	if err != nil {
		return jobResult{export: []byte(err.Error()), err: fmt.Errorf("export: %w", err)}
	}
	r := jobResult{export: buf.Bytes(), counts: map[string]float64{}}
	for _, snap := range e.Snapshots {
		addSnapshot(&r, snap)
	}
	return r
}

// addSnapshot folds one metrics snapshot into the job's counters.
func addSnapshot(r *jobResult, snap *metrics.Snapshot) {
	c := r.counts
	for _, ms := range snap.Metrics {
		v := 0.0
		switch {
		case ms.Counter != nil:
			v = float64(*ms.Counter)
		case ms.Gauge != nil:
			v = float64(*ms.Gauge)
		}
		name := ms.Name
		switch {
		case name == "sim.loop.events_dispatched":
			c["sim.events"] += v
			r.events += uint64(v)
		case name == "sim.loop.queue_high_water":
			c["sim.queue_high_water"] += v
		case name == "link.network.transmitted":
			c["link.transmitted"] += v
			c[name] += v
		case name == "link.network.delivered":
			c["link.delivered"] += v
		case name == "link.device.drop_down":
			c["link.drop_down"] += v
		case name == "link.device.drop_filter":
			c[name] += v
		case name == "stack.route_cache.hits":
			c[name] += v
			c["stack.route_cache.lookups"] += v
		case name == "stack.route_cache.misses":
			c["stack.route_cache.lookups"] += v
		case name == "stack.host.forwarded":
			c["stack.forwarded"] += v
		case strings.HasPrefix(name, "stack.host.drop_"):
			c["stack.drops"] += v
		case name == "tunnel.endpoint.encapsulated":
			c["tunnel.encapsulated"] += v
		case strings.HasPrefix(name, "tunnel.endpoint.drop_"):
			c["tunnel.drops"] += v
		case name == "mip.mh.registrations":
			c["mip.registrations"] += v
		case name == "mip.mh.reg_retransmits":
			c["mip.reg_retransmits"] += v
		case name == "mip.mh.reg_timeouts":
			c["mip.reg_timeouts"] += v
		case name == "mip.policy.hits", name == "mip.policy.lookups":
			c[name] += v
		case name == "mip.mh.registration_latency" && ms.Histogram != nil:
			r.regCount += ms.Histogram.Count
			r.regSumNS += uint64(ms.Histogram.Sum)
		}
	}
}

// sumMetric sums every row of a counter across its labels.
func sumMetric(snap *metrics.Snapshot, name string) float64 {
	total := 0.0
	for _, ms := range snap.Metrics {
		if ms.Name == name && ms.Counter != nil {
			total += float64(*ms.Counter)
		}
	}
	return total
}
