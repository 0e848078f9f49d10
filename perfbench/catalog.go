package main

// metricDef describes one metric the benchmark can report. Gated metrics
// are the ones BENCHMARK.json lists: they are defined and non-zero on
// every workload, so a regression bound can be set on them. The others
// are printed where a workload's public results define them and reported
// as absent elsewhere.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	traced bool   // per-layer: reported by the traced run
	gated  bool   // listed in BENCHMARK.json
}

// layers are the simulator packages (mosquitonet/internal/<layer>) whose
// CPU self time the traced run attributes. Three buckets complete the
// sum: runtime (no repo frame on the stack), bench (only the benchmark's
// own frames) and other (a repo package not listed here).
var layers = []string{
	"sim", "link", "arp", "ip", "stack", "pipeline", "tunnel", "mip", "transport",
	"app", "dhcp", "scenario", "metrics", "trace", "stats", "bufpool", "arena", "testbed",
}

var selfBuckets = append(append([]string{}, layers...), "runtime", "bench", "other")

func e2e(name, unit string, gated bool) metricDef {
	return metricDef{name: name, unit: unit, better: "lower", gated: gated}
}

func layer(name, unit, better string, gated bool) metricDef {
	return metricDef{name: name, unit: unit, better: better, traced: true, gated: gated}
}

// catalog lists every metric in print order; README.md describes them.
var catalog = func() []metricDef {
	c := []metricDef{
		e2e("setup_s", "s", true),
		e2e("job_ms_p50", "ms", true),
		e2e("job_ms_tail", "ms", false),
		e2e("peak_rss_mb", "MB", true),
		e2e("allocs_per_event", "count", true),
		e2e("fail_frac", "ratio", false),
		e2e("virt_loss_frac", "ratio", false),
		e2e("virt_reg_ms_mean", "virtual_ms", false),
		e2e("virt_blackout_ms_p50", "virtual_ms", false),
		e2e("virt_blackout_ms_tail", "virtual_ms", false),
	}
	for _, l := range selfBuckets {
		c = append(c, layer(l+".self_frac", "ratio", "lower", true))
	}
	return append(c,
		layer("sim.events", "count", "lower", true),
		layer("sim.ns_per_event", "ns", "lower", true),
		layer("sim.queue_high_water", "count", "lower", true),
		layer("sim.epochs", "count", "lower", false),
		layer("sim.epochs_skipped", "count", "higher", false),
		layer("sim.barrier_waits", "count", "lower", false),
		layer("sim.cross_frames", "count", "lower", false),
		layer("link.transmitted", "count", "lower", false),
		layer("link.delivered", "count", "lower", false),
		layer("link.drop_down", "count", "lower", false),
		layer("link.filter_rejects_per_tx", "ratio", "lower", false),
		layer("stack.route_cache_hit_frac", "ratio", "higher", true),
		layer("stack.forwarded", "count", "lower", false),
		layer("stack.drops", "count", "lower", false),
		layer("tunnel.encapsulated", "count", "lower", true),
		layer("tunnel.drops", "count", "lower", false),
		layer("mip.registrations", "count", "lower", true),
		layer("mip.reg_retransmits", "count", "lower", false),
		layer("mip.reg_timeouts", "count", "lower", false),
		layer("mip.policy_hit_frac", "ratio", "higher", false),
		layer("app.broker_publishes", "count", "lower", false),
		layer("app.http_requests", "count", "lower", false),
		layer("app.drop_bad_frame", "count", "lower", false),
		layer("scenario.generate_ms", "ms", "lower", false),
		layer("scenario.compile_ms_p50", "ms", "lower", false),
		layer("trace.dropped_events", "count", "lower", false),
		layer("trace.dropped_spans", "count", "lower", false),
		layer("runtime.gc_cpu_frac", "ratio", "lower", true),
		layer("runtime.gc_cycles_per_job", "count", "lower", true),
		layer("runtime.alloc_bytes_per_event", "B", "lower", true),
		layer("bench.trace_overhead_frac", "ratio", "lower", true),
	)
}()

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
