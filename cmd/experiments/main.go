// Command experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations indexed in DESIGN.md, and prints them in
// the paper's own presentation (loss histograms per Figure 6, mean (std
// dev) rows per Figure 7).
//
// Alongside the human-readable output, each experiment writes a
// machine-readable export — BENCH_<exp>.json with the seed and the
// per-scenario metrics snapshots (registration latency histograms, tunnel
// encap/decap counters, per-device link statistics, ...) — and F7
// additionally writes BENCH_f7_timeline.jsonl, its registration timeline
// as one JSON event per line. The handoff observatory writes two more:
// BENCH_handoff_spans.jsonl (the run's span record) and
// BENCH_handoff_trace.json (the same spans as a Chrome trace-event file,
// loadable in chrome://tracing or https://ui.perfetto.dev). Exports are
// byte-identical across runs with the same seed.
//
// Experiments are registered in a dispatch table; -list enumerates them
// with the flags each one consumes. "-exp all" runs every entry marked
// for the batch; experiments with machine-dependent output (parallel) or
// ad-hoc inputs (scenario, sweep) run only when named explicitly.
//
// Usage:
//
//	experiments [-list] [-seed N] [-exp all|<name>] [per-experiment flags] [-json dir]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	mosquitonet "mosquitonet"
	"mosquitonet/internal/testbed"
)

// opts holds every flag value; per-experiment flags are registered by the
// table entries that own them, so -list can attribute each flag to its
// experiment.
var opts struct {
	seed    int64
	jsonDir string
	workers int

	samples     int
	a2iters     int
	a3fleets    string
	scaleFleets string
	sweepN      int
	scenario    string
}

// experiment is one dispatch-table entry.
type experiment struct {
	name  string
	desc  string
	inAll bool                       // runs under -exp all (requires byte-reproducible output)
	flags func(*flag.FlagSet) string // registers the entry's flags; returns their summary for -list
	run   func() error
}

// experiments is the dispatch table, in "all"-batch execution order.
var experiments = []experiment{
	{
		name: "e1", inAll: true,
		desc: "end-to-end roaming walkthrough (paper §4 narrative)",
		run: func() error {
			res, err := mosquitonet.RunE1(opts.seed)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "f6", inAll: true,
		desc: "Figure 6: packet loss during handoffs, per switch discipline",
		run: func() error {
			res, err := mosquitonet.RunF6(opts.seed)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "f7", inAll: true,
		desc: "Figure 7: registration latency, mean (std dev) per path",
		run: func() error {
			res, err := mosquitonet.RunF7(opts.seed)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			writeTimeline(opts.jsonDir, "BENCH_f7_timeline.jsonl", res)
			return nil
		},
	},
	{
		name: "handoff", inAll: true,
		desc: "handoff disruption observatory (spans, flight recorder, per-window scoring)",
		run: func() error {
			res, err := mosquitonet.RunHandoff(opts.seed)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			writeArtifact(opts.jsonDir, "BENCH_handoff_spans.jsonl", res.Tracer.WriteSpansJSONL)
			writeArtifact(opts.jsonDir, "BENCH_handoff_trace.json", res.Tracer.WriteChromeTrace)
			return nil
		},
	},
	{
		name: "loadedhandoff", inAll: true,
		desc: "roaming itinerary under MQTT + HTTP application load",
		run: func() error {
			res, err := mosquitonet.RunLoadedHandoff(opts.seed)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "rtt", inAll: true,
		desc: "round-trip latency per topology position",
		flags: func(fs *flag.FlagSet) string {
			if fs.Lookup("samples") == nil {
				fs.IntVar(&opts.samples, "samples", 20, "samples for RTT/A1 measurements")
			}
			return "-samples"
		},
		run: func() error {
			res, err := mosquitonet.RunRTT(opts.seed, opts.samples)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "tput", inAll: true,
		desc: "bulk TCP throughput home vs tunnelled",
		run: func() error {
			res, err := mosquitonet.RunThroughput(opts.seed, 50, 1000)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "a1", inAll: true,
		desc: "ablation: tunnelling cost decomposition",
		flags: func(fs *flag.FlagSet) string {
			if fs.Lookup("samples") == nil {
				fs.IntVar(&opts.samples, "samples", 20, "samples for RTT/A1 measurements")
			}
			return "-samples"
		},
		run: func() error {
			res, err := mosquitonet.RunA1(opts.seed, opts.samples)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "a2", inAll: true,
		desc: "ablation: collocated vs foreign-agent care-of",
		flags: func(fs *flag.FlagSet) string {
			if fs.Lookup("a2-iterations") == nil {
				fs.IntVar(&opts.a2iters, "a2-iterations", 5, "handoffs per A2/A4 variant")
			}
			return "-a2-iterations"
		},
		run: func() error {
			res, err := mosquitonet.RunA2(opts.seed, opts.a2iters)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "a4", inAll: true,
		desc: "ablation: handoff strategy comparison",
		flags: func(fs *flag.FlagSet) string {
			if fs.Lookup("a2-iterations") == nil {
				fs.IntVar(&opts.a2iters, "a2-iterations", 5, "handoffs per A2/A4 variant")
			}
			return "-a2-iterations"
		},
		run: func() error {
			res, err := mosquitonet.RunA4(opts.seed, opts.a2iters)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "a3", inAll: true,
		desc: "ablation: home-agent load vs fleet size",
		flags: func(fs *flag.FlagSet) string {
			fs.StringVar(&opts.a3fleets, "a3-fleets", "1,8,32,64", "comma-separated fleet sizes for A3")
			return "-a3-fleets"
		},
		run: func() error {
			res, err := mosquitonet.RunA3(opts.seed, parseFleets(opts.a3fleets))
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		name: "scale", inAll: true,
		desc:  "roaming-fleet scale (sharded; byte-identical at any -workers)",
		flags: scaleFleetsFlag,
		run: func() error {
			res, err := mosquitonet.RunScaleWorkers(opts.seed, parseFleets(opts.scaleFleets), opts.workers)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		// The parallel experiment records machine-dependent wall-clock
		// times, so it runs only when explicitly requested — never under
		// "all", which must stay byte-reproducible.
		name: "parallel", inAll: false,
		desc:  "sharded-scheduler speedup measurement (wall-clock; explicit only)",
		flags: scaleFleetsFlag,
		run: func() error {
			w := opts.workers
			if w <= 1 {
				w = 4 // comparing workers=1 against itself would be vacuous
			}
			res, err := mosquitonet.RunParallel(opts.seed, parseFleets(opts.scaleFleets), w)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		// Inputs are ad-hoc (any catalog scenario), so not part of "all".
		name: "scenario", inAll: false,
		desc: "run one catalog scenario through the generic probe runner",
		flags: func(fs *flag.FlagSet) string {
			fs.StringVar(&opts.scenario, "scenario", "faultdemo", "catalog scenario name for -exp scenario")
			return "-scenario"
		},
		run: func() error {
			spec, err := testbed.Scenario(opts.scenario)
			if err != nil {
				return err
			}
			res, err := mosquitonet.RunScenarioProbe(opts.seed, spec)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
	{
		// Deterministic but sized by -n, so not part of "all"; CI pins its
		// artifact against bench/BENCH_sweep.json explicitly.
		name: "sweep", inAll: false,
		desc: "seeded randomized-scenario sweep over the sweep-base template",
		flags: func(fs *flag.FlagSet) string {
			fs.IntVar(&opts.sweepN, "n", 8, "number of generated sweep scenarios (min 8 for the pinned artifact)")
			return "-n"
		},
		run: func() error {
			res, err := mosquitonet.RunSweep(opts.seed, opts.sweepN)
			if err != nil {
				return err
			}
			fmt.Println(res)
			writeExport(opts.jsonDir, res.Export)
			return nil
		},
	},
}

func main() {
	list := flag.Bool("list", false, "list the registered experiments and their flags")
	exp := flag.String("exp", "all", "experiment to run: all, or one of the -list entries")
	flag.Int64Var(&opts.seed, "seed", 1996, "simulation seed (results are deterministic per seed)")
	flag.IntVar(&opts.workers, "workers", 1, "worker goroutines for sharded experiments (results are identical at any count)")
	flag.StringVar(&opts.jsonDir, "json", "bench", "directory for BENCH_*.json exports (empty to disable)")

	flagsOf := map[string]string{}
	for _, e := range experiments {
		if e.flags != nil {
			flagsOf[e.name] = e.flags(flag.CommandLine)
		}
	}
	flag.Parse()

	if *list {
		fmt.Println("experiments (* runs under -exp all):")
		for _, e := range experiments {
			batch := " "
			if e.inAll {
				batch = "*"
			}
			fmt.Printf("  %s %-14s %s", batch, e.name, e.desc)
			if f := flagsOf[e.name]; f != "" {
				fmt.Printf(" [%s]", f)
			}
			fmt.Println()
		}
		return
	}

	ran := false
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.inAll) {
			ran = true
			exitOn(e.run())
		}
	}
	if !ran {
		names := make([]string, 0, len(experiments))
		for _, e := range experiments {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}

// scaleFleetsFlag registers -scale-fleets, shared by the scale and
// parallel experiments; its default is the scale scenario's tiers.
func scaleFleetsFlag(fs *flag.FlagSet) string {
	if fs.Lookup("scale-fleets") == nil {
		var tiers []string
		for _, n := range testbed.MustScenario("scale").Topology.Fleet.Tiers {
			tiers = append(tiers, strconv.Itoa(n))
		}
		fs.StringVar(&opts.scaleFleets, "scale-fleets", strings.Join(tiers, ","),
			"comma-separated fleet sizes for the scale/parallel experiments (e.g. -exp scale -scale-fleets 100000)")
	}
	return "-scale-fleets, -workers"
}

// parseFleets splits a comma-separated fleet-size list.
func parseFleets(s string) []int {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 1 {
			exitOn(fmt.Errorf("bad fleet size %q", f))
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// writeExport serializes one experiment's export as BENCH_<name>.json.
func writeExport(dir string, e *testbed.Export) {
	if dir == "" || e == nil {
		return
	}
	exitOn(os.MkdirAll(dir, 0o755))
	path := filepath.Join(dir, "BENCH_"+e.Experiment+".json")
	f, err := os.Create(path)
	exitOn(err)
	if err := e.WriteJSON(f); err != nil {
		f.Close()
		exitOn(err)
	}
	exitOn(f.Close())
	fmt.Printf("wrote %s\n\n", path)
}

// writeArtifact serializes one extra export artifact (span JSONL, Chrome
// trace) via the given writer function.
func writeArtifact(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	exitOn(os.MkdirAll(dir, 0o755))
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	exitOn(err)
	if err := write(f); err != nil {
		f.Close()
		exitOn(err)
	}
	exitOn(f.Close())
	fmt.Printf("wrote %s\n\n", path)
}

// writeTimeline serializes F7's registration timeline as JSONL.
func writeTimeline(dir, name string, res *testbed.F7Result) {
	if dir == "" || res.Timeline == nil {
		return
	}
	exitOn(os.MkdirAll(dir, 0o755))
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	exitOn(err)
	if err := res.Timeline.WriteJSONL(f); err != nil {
		f.Close()
		exitOn(err)
	}
	exitOn(f.Close())
	fmt.Printf("wrote %s\n\n", path)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
