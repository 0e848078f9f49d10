package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/stats"
)

// The generic scenario runner: any catalog or generated spec that
// declares an itinerary and UDP probes becomes an experiment. The first
// itinerary step attaches the mobile host, the probes start, the
// remaining steps (and any scheduled faults) play out, and every root
// handoff and fault.* span becomes an attribution window scored against
// every probe flow. RunSweep and the fault-injection scenarios
// (faultdemo) drive their runs through here.

// ScenarioProbeRow is one probe flow's accounting across a scenario run.
type ScenarioProbeRow struct {
	Flow            string `json:"flow"`
	ProbeIntervalNS int64  `json:"probe_interval_ns"`

	PacketsSent     int `json:"packets_sent"`
	PacketsReceived int `json:"packets_received"`
	PacketsLost     int `json:"packets_lost"`
	Reorders        int `json:"reorders"`

	BaselineLatencyNS int64 `json:"baseline_latency_ns"`

	// Windows holds one disruption report per handoff or fault window, in
	// window start order.
	Windows []stats.DisruptionReport `json:"windows"`
}

// ScenarioRows is the machine-readable outcome of one scenario run.
type ScenarioRows struct {
	Scenario string                 `json:"scenario"`
	GraceNS  int64                  `json:"grace_ns"`
	Faults   []scenario.FaultRecord `json:"faults"`
	Flows    []ScenarioProbeRow     `json:"flows"`
}

// ScenarioResult is one compiled-and-run scenario. World stays readable
// after the run for state inspection (bindings, stats, routes); the
// loop has stopped by the time RunScenarioProbe returns.
type ScenarioResult struct {
	Rows    ScenarioRows
	Testbed *Testbed
	Probes  []*FlowProbe
	Export  *Export
}

func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO %s: %d probe flow(s), %d fault(s), %v grace\n",
		r.Rows.Scenario, len(r.Rows.Flows), len(r.Rows.Faults), time.Duration(r.Rows.GraceNS))
	for _, f := range r.Rows.Faults {
		fmt.Fprintf(&b, "  fault %-18s %-14s [%v, %v]\n", f.Kind, f.Target,
			time.Duration(f.Start).Round(time.Millisecond), time.Duration(f.End).Round(time.Millisecond))
	}
	for _, f := range r.Rows.Flows {
		fmt.Fprintf(&b, "flow %s: %d sent, %d received, %d lost, %d reordered\n",
			f.Flow, f.PacketsSent, f.PacketsReceived, f.PacketsLost, f.Reorders)
		b.WriteString(stats.FormatDisruption(f.Windows))
	}
	return b.String()
}

// RunScenarioProbe compiles spec, walks its itinerary under its UDP
// probes, and scores every handoff and fault window against every flow.
// The spec must declare a non-empty itinerary whose first step attaches
// the mobile host; probes are optional (a probe-less run still reports
// its fault records).
func RunScenarioProbe(seed int64, spec *scenario.Spec) (*ScenarioResult, error) {
	if len(spec.Itinerary) == 0 {
		return nil, fmt.Errorf("scenario %s: no itinerary to run", spec.Name)
	}
	tb, err := NewFromSpec(seed, spec)
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	probes, windows, err := runProbeItinerary(tb)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	res := &ScenarioResult{
		Rows: ScenarioRows{
			Scenario: spec.Name,
			GraceNS:  int64(HandoffGrace),
			Faults:   tb.World.Faults.Records(),
		},
		Testbed: tb,
		Probes:  probes,
	}
	for i, probe := range probes {
		flow := probe.Flow()
		sent, received, lost, reorders := flow.Totals()
		res.Rows.Flows = append(res.Rows.Flows, ScenarioProbeRow{
			Flow:              flow.Name(),
			ProbeIntervalNS:   int64(spec.Traffic.Probes[i].Interval.D()),
			PacketsSent:       sent,
			PacketsReceived:   received,
			PacketsLost:       lost,
			Reorders:          reorders,
			BaselineLatencyNS: int64(flow.Baseline()),
			Windows:           flow.Analyze(windows, HandoffGrace),
		})
	}
	res.Export = &Export{
		Experiment: "scenario",
		Seed:       seed,
		Snapshots:  []*metrics.Snapshot{tb.SnapshotMetrics(spec.Name)},
		Rows:       res.Rows,
	}
	return res, nil
}

// runProbeItinerary is the run sequence of the probe-scored experiments:
// the first itinerary step attaches the mobile host, every spec probe
// starts, the remaining steps (and any scheduled faults) play out, the
// probes pause, and the spec's drain lets stragglers arrive. It returns
// the probes and the handoff and fault windows to score them against.
func runProbeItinerary(tb *Testbed) ([]*FlowProbe, []stats.Window, error) {
	spec := tb.World.Spec
	if err := tb.World.Step(spec.Itinerary[0]); err != nil {
		return nil, nil, err
	}

	var probes []*FlowProbe
	if spec.Traffic != nil {
		for i := range spec.Traffic.Probes {
			p := &spec.Traffic.Probes[i]
			probe, err := NewFlowProbe(tb.Loop, tb.World.Stacks[p.From], tb.World.Stacks[p.To],
				ip.MustParseAddr(p.Dst), uint16(p.Port), p.Interval.D())
			if err != nil {
				return nil, nil, fmt.Errorf("probe %s->%s: %w", p.From, p.To, err)
			}
			probes = append(probes, probe)
			probe.Start()
		}
	}

	if err := tb.World.RunItinerary(spec.Itinerary[1:]); err != nil {
		return nil, nil, err
	}

	for _, probe := range probes {
		probe.Pause()
	}
	if spec.Traffic != nil && spec.Traffic.Drain.D() > 0 {
		tb.Run(spec.Traffic.Drain.D())
	}
	return probes, observationWindows(tb.Tracer), nil
}
