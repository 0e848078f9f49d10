package testbed

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// The handoff observatory runs the mnet roaming itinerary — home, the
// department Ethernet, the radio, a hot switch back to the wire, home
// again — under full span tracing, with a one-way sequence-numbered probe
// flowing correspondent -> mobile host throughout. Each root handoff span
// becomes an attribution window for the flow's disruption metrics (loss,
// blackout, latency spike over baseline, reordering), and a flight
// recorder dumps the recent trace on anomalies (registration timeouts,
// no-route drop bursts). Everything derives from virtual time and seeded
// randomness, so BENCH_handoff.json is byte-identical across same-seed
// runs at any worker count — the experiment is single-loop, workers never
// touch it.

// Handoff experiment shape.
const (
	HandoffProbeInterval = 50 * time.Millisecond
	// HandoffGrace extends each attribution window: damage starts with
	// packets already in flight when the switch begins and trails through
	// route convergence after it completes.
	HandoffGrace = 500 * time.Millisecond
	// handoffSettle is the steady-state dwell between moves.
	handoffSettle = 5 * time.Second

	// Flight-recorder tuning: the trace ring kept for dumps, and the
	// no-route burst that marks a blackout worth dumping over.
	handoffFlightCapacity  = 65536
	handoffFlightDumps     = 4
	handoffDropBurstCount  = 8
	handoffDropBurstWindow = 500 * time.Millisecond
)

// FlowProbe streams one-way sequence-numbered UDP datagrams into a
// stats.FlowTracker: the sender stamps each transmission, the receiver
// each arrival, and the tracker owns the loss/latency/reordering
// accounting. Unlike EchoProbe it never reflects traffic, so its latency
// samples are one-way and its loss is direction-attributable.
type FlowProbe struct {
	loop     *sim.Loop
	src      *transport.UDPSocket
	sink     *transport.UDPSocket
	dst      ip.Addr
	port     uint16
	interval time.Duration
	flow     *stats.FlowTracker

	seq     uint64
	paused  bool
	stopped bool
}

// NewFlowProbe installs the receiver on to (bound to the wildcard address,
// so it keeps collecting across address switches) and prepares the sender
// on from. Call Start to begin transmission.
func NewFlowProbe(loop *sim.Loop, from, to *transport.Stack, dst ip.Addr, port uint16, interval time.Duration) (*FlowProbe, error) {
	p := &FlowProbe{loop: loop, dst: dst, port: port, interval: interval, paused: true,
		flow: stats.NewFlowTracker(fmt.Sprintf("udp:%v:%d", dst, port))}
	sink, err := to.UDP(ip.Unspecified, port, func(d transport.Datagram) {
		if len(d.Payload) < 8 {
			//lint:allow dropaccounting non-probe datagram ignored; flow accounting lives in the tracker
			return
		}
		p.flow.Received(binary.BigEndian.Uint64(d.Payload), p.loop.Now())
	})
	if err != nil {
		return nil, err
	}
	p.sink = sink
	src, err := from.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		sink.Close()
		return nil, err
	}
	p.src = src
	return p, nil
}

// Start (or resume) transmission.
func (p *FlowProbe) Start() {
	if !p.paused || p.stopped {
		return
	}
	p.paused = false
	p.tick()
}

// Pause suspends transmission; in-flight packets still count on arrival.
func (p *FlowProbe) Pause() { p.paused = true }

// Stop ends the probe permanently and releases its sockets.
func (p *FlowProbe) Stop() {
	p.stopped = true
	p.paused = true
	p.src.Close()
	p.sink.Close()
}

// Flow returns the tracker accumulating this probe's accounting.
func (p *FlowProbe) Flow() *stats.FlowTracker { return p.flow }

func (p *FlowProbe) tick() {
	if p.paused || p.stopped {
		return
	}
	p.seq++
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], p.seq)
	p.flow.Sent(p.seq, p.loop.Now())
	p.src.SendTo(p.dst, p.port, payload[:])
	p.loop.Schedule(p.interval, p.tick)
}

// handoffRootKinds are the span kinds that bound whole handoffs — the
// roots the disruption analyzer turns into attribution windows. Phase
// spans (handoff.dhcp, handoff.configure, ...) can also appear as roots
// when Prepare runs outside a switch, so window selection matches exact
// kinds, not the "handoff." prefix.
var handoffRootKinds = map[string]bool{
	"handoff.cold":       true,
	"handoff.hot":        true,
	"handoff.home":       true,
	"handoff.connect":    true,
	"handoff.addrswitch": true,
}

// observationWindows turns every closed root span that bounds a handoff
// or an injected fault into one attribution window, in span start order
// (spans are retained in start order).
func observationWindows(tr *trace.Tracer) []stats.Window {
	var windows []stats.Window
	for _, sp := range tr.Spans() {
		if sp.Parent == 0 && (handoffRootKinds[sp.Kind] || scenario.FaultRootKinds(sp.Kind)) && sp.End >= sp.Start {
			windows = append(windows, stats.Window{Kind: sp.Kind, Start: sp.Start, End: sp.End})
		}
	}
	return windows
}

// HandoffRows is the machine-readable result table of the handoff
// experiment: flow-wide totals plus one disruption report per handoff
// window. Struct-typed so the JSON field order is fixed.
type HandoffRows struct {
	ProbeIntervalNS   int64  `json:"probe_interval_ns"`
	GraceNS           int64  `json:"grace_ns"`
	BaselineLatencyNS int64  `json:"baseline_latency_ns"`
	PacketsSent       int    `json:"packets_sent"`
	PacketsReceived   int    `json:"packets_received"`
	PacketsLost       int    `json:"packets_lost"`
	Reorders          int    `json:"reorders"`
	FlightDumps       int    `json:"flight_dumps"`
	DroppedEvents     uint64 `json:"dropped_events"`
	DroppedSpans      uint64 `json:"dropped_spans"`

	Handoffs []stats.DisruptionReport `json:"handoffs"`
}

// HandoffResult is the full handoff observatory run.
type HandoffResult struct {
	Rows   HandoffRows
	Flow   *stats.FlowTracker
	Flight *trace.FlightRecorder
	// Tracer retains the run's full event and span record for export
	// (spans JSONL, Chrome trace) after the testbed is closed.
	Tracer *trace.Tracer
	Export *Export
}

func (r *HandoffResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HANDOFF: disruption observatory (%v one-way probe, %v grace)\n",
		HandoffProbeInterval, HandoffGrace)
	fmt.Fprintf(&b, "flow: %d sent, %d received, %d lost, %d reordered; baseline one-way latency %v\n",
		r.Rows.PacketsSent, r.Rows.PacketsReceived, r.Rows.PacketsLost, r.Rows.Reorders,
		time.Duration(r.Rows.BaselineLatencyNS).Round(time.Microsecond))
	b.WriteString(stats.FormatDisruption(r.Rows.Handoffs))
	fmt.Fprintf(&b, "flight recorder: %d dumps", r.Rows.FlightDumps)
	for _, d := range r.Flight.Dumps() {
		fmt.Fprintf(&b, "; [%v] %s (%d events, %d spans)", d.At, d.Reason, len(d.Events), len(d.Spans))
	}
	b.WriteString("\n")
	return b.String()
}

// RunHandoff performs the roaming itinerary under the observatory and
// returns the per-handoff disruption reports. The itinerary, the probe,
// and the drain all come from the handoff scenario spec: the first
// itinerary step attaches the mobile host, the probe starts, and the
// remaining steps walk the five moves.
func RunHandoff(seed int64) (*HandoffResult, error) {
	spec, err := Scenario("handoff")
	if err != nil {
		return nil, err
	}
	tb, err := NewFromSpec(seed, spec)
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	fr := trace.NewFlightRecorder(tb.Tracer, handoffFlightCapacity, handoffFlightDumps)
	fr.TriggerOn("reg.timeout")
	fr.TriggerOnBurst("drop.noroute", handoffDropBurstCount, handoffDropBurstWindow)

	probes, windows, err := runProbeItinerary(tb)
	if err != nil {
		return nil, fmt.Errorf("handoff: %w", err)
	}
	p := spec.Traffic.Probes[0]
	flow := probes[0].Flow()
	sent, received, lost, reorders := flow.Totals()
	res := &HandoffResult{
		Rows: HandoffRows{
			ProbeIntervalNS:   int64(p.Interval.D()),
			GraceNS:           int64(HandoffGrace),
			BaselineLatencyNS: int64(flow.Baseline()),
			PacketsSent:       sent,
			PacketsReceived:   received,
			PacketsLost:       lost,
			Reorders:          reorders,
			FlightDumps:       len(fr.Dumps()),
			DroppedEvents:     tb.Tracer.Dropped(),
			DroppedSpans:      tb.Tracer.DroppedSpans(),
			Handoffs:          flow.Analyze(windows, HandoffGrace),
		},
		Flow:   flow,
		Flight: fr,
		Tracer: tb.Tracer,
	}
	res.Export = &Export{
		Experiment: "handoff",
		Seed:       seed,
		Snapshots:  []*metrics.Snapshot{tb.SnapshotMetrics("handoff")},
		Rows:       res.Rows,
	}
	return res, nil
}
