package stack

import (
	"errors"
	"fmt"
	"time"

	"mosquitonet/internal/arp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/pipeline"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

// Config tunes a host's per-packet software costs. The paper's numbers are
// from 40 MHz 486 subnotebooks and a Pentium 90 router, where protocol
// processing is measurable in fractions of a millisecond; the testbed
// package calibrates these so the registration time-line lands on the
// measured values.
type Config struct {
	InputDelay   time.Duration // receive-path processing per packet
	OutputDelay  time.Duration // send-path processing per packet
	ForwardDelay time.Duration // extra cost to forward (routers)
	TTL          uint8         // initial TTL for local packets (default 64)
}

func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = ip.DefaultTTL
	}
	return c
}

// Stats counts a host's IP-layer activity.
type Stats struct {
	Sent          uint64
	Received      uint64
	Delivered     uint64
	Forwarded     uint64
	DropNoRoute   uint64
	DropTTL       uint64
	DropFilter    uint64
	DropBadPacket uint64
	DropNotLocal  uint64
	DropNoHandler uint64
	DropMTU       uint64 // DF packets exceeding an interface MTU
	FragmentsSent uint64
	RedirectsSent uint64
	RedirectsRcvd uint64
}

// ProtocolHandler consumes a locally delivered packet.
type ProtocolHandler func(ifc *Iface, pkt *ip.Packet)

// Verdict is a forwarding filter's decision.
type Verdict int

// Filter verdicts. Reject differs from Drop by sending an ICMP
// administratively-prohibited error back to the source, which is how a
// polite transit-traffic filter behaves.
const (
	Accept Verdict = iota
	Drop
	Reject
)

// FilterFunc inspects a packet being forwarded from in to out.
type FilterFunc func(in, out *Iface, pkt *ip.Packet) Verdict

// ErrNoRoute is returned when no route matches a destination.
var ErrNoRoute = errors.New("stack: no route to host")

// Host is a simulated IP host: interfaces, routing table, input/output/
// forwarding machinery, and protocol handlers.
type Host struct {
	name string
	loop *sim.Loop
	cfg  Config

	ifaces []*Iface
	lo     *Iface
	routes RouteTable

	// The netfilter-style datapath: one hook chain per classic stage
	// (indexed by pipeline.Stage), plus the route-resolution chain that
	// generalizes the paper's single-slot ip_rt_route override. All the
	// legacy splice APIs (SetRouteLookup, AddFilter) delegate here.
	chains     [pipeline.NumStages]*pipeline.Chain[*PacketContext]
	routeHooks *pipeline.Chain[*RouteQuery]
	filterSeq  int

	// Route-decision cache for the ip_rt_route hot path. Decisions are
	// memoized per (dst, boundSrc) for local output and per dst for the
	// forwarding path, and guarded by a combined generation: the route
	// table's own counter plus routeGen, which everything outside the
	// table bumps via InvalidateRoutes (iface/device state, local-address
	// set, mobility policy). Any bump flushes both maps lazily on the
	// next lookup, so a cached decision can never outlive the state it
	// was derived from.
	routeGen      uint64
	routeCacheGen uint64
	routeCache    map[routeCacheKey]RouteDecision
	fwdCache      map[ip.Addr]Route
	cacheStats    RouteCacheStats

	handlers   map[ip.Protocol]ProtocolHandler
	forwarding bool

	// localAddrs holds addresses the host accepts beyond its interface
	// addresses. A mobile host away from home keeps its home address here:
	// tunneled packets arrive addressed to the care-of address, but the
	// decapsulated inner packet is addressed to the home address.
	localAddrs map[ip.Addr]bool

	// groups holds joined multicast groups. Group traffic is link-scoped:
	// it rides link broadcast on the joined interface and routers do not
	// forward it — the paper's "join multicast groups via the foreign
	// network" is a local-role activity.
	groups map[ip.Addr]bool

	installRedirects bool
	icmp             *ICMP
	reasm            *ip.Reassembler
	sweepArmed       bool
	stats            Stats
	idSeq            uint16
	pktlog           *metrics.PacketLog

	// tracer is the loop's span tracer, resolved lazily because hosts may
	// be built before trace.New associates one with the loop. Drop spans
	// are always recorded when a tracer exists; chainSpans additionally
	// records a traversal span per chain run (opt-in, hot).
	tracer     *trace.Tracer
	chainSpans bool
}

// reassemblySweepInterval drives partial-fragment expiry; with MaxAge 2
// this gives incomplete packets 15-30 s, per the classic reassembly
// timeout.
const reassemblySweepInterval = 15 * time.Second

// sweepLaneGranularity buckets sweep timers across hosts: on a fleet every
// host holding partial fragments sweeps on the same cadence, and a 100ms
// rounding is immaterial against a 15s interval and 15-30s expiry window.
const sweepLaneGranularity = 100 * time.Millisecond

// NewHost creates a host with a loopback interface and the default route
// lookup installed.
func NewHost(loop *sim.Loop, name string, cfg Config) *Host {
	h := &Host{name: name, loop: loop, cfg: cfg.withDefaults()}
	h.lo = &Iface{host: h, name: "lo", addr: ip.MustParseAddr("127.0.0.1"), prefix: ip.MustParsePrefix("127.0.0.0/8")}
	h.lo.transmit = func(pkt *ip.Packet, _ ip.Addr) { h.Input(h.lo, pkt) }
	h.ifaces = append(h.ifaces, h.lo)
	h.icmp = newICMP(h)
	h.reasm = ip.NewReassembler()
	h.pktlog = metrics.PacketsFor(loop)
	h.initPipeline()
	h.registerMetrics(metrics.For(loop))
	return h
}

// spanTracer returns the loop's tracer, caching the first successful
// lookup. Hosts are often built before trace.New runs, so NewHost cannot
// resolve it eagerly; a miss retries on the next call (a cheap registry
// load, and only on already-slow paths like drops).
func (h *Host) spanTracer() *trace.Tracer {
	if h.tracer == nil {
		h.tracer = trace.For(h.loop)
	}
	return h.tracer
}

// EnableChainSpans turns on per-chain traversal spans: every run of every
// stage chain records an instant span ("pipeline.forward", ...) with the
// final verdict attached. Off by default — at scale this is one span per
// packet per stage — it exists for interactive introspection (mnet -spans)
// and targeted tests. Requires a tracer associated with the host's loop.
func (h *Host) EnableChainSpans() { h.chainSpans = true }

// registerMetrics exposes the host's counters in the loop's registry; the
// Stats struct stays the source of truth. A single snapshot-time collector
// replaces a 20-entry roster of CounterFunc registrations: at fleet scale
// the registry cost per host is one closure, not twenty map entries, and
// the snapshot rows are byte-identical.
func (h *Host) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Collect(func(c *metrics.Collection) {
		host := metrics.L("host", h.name)
		c.Counter("stack.host.sent", h.stats.Sent, host)
		c.Counter("stack.host.received", h.stats.Received, host)
		c.Counter("stack.host.delivered", h.stats.Delivered, host)
		c.Counter("stack.host.forwarded", h.stats.Forwarded, host)
		c.Counter("stack.host.drop_no_route", h.stats.DropNoRoute, host)
		c.Counter("stack.host.drop_ttl", h.stats.DropTTL, host)
		c.Counter("stack.host.drop_filter", h.stats.DropFilter, host)
		c.Counter("stack.host.drop_bad_packet", h.stats.DropBadPacket, host)
		c.Counter("stack.host.drop_not_local", h.stats.DropNotLocal, host)
		c.Counter("stack.host.drop_no_handler", h.stats.DropNoHandler, host)
		c.Counter("stack.host.drop_mtu", h.stats.DropMTU, host)
		c.Counter("stack.host.fragments_sent", h.stats.FragmentsSent, host)
		c.Counter("stack.host.redirects_sent", h.stats.RedirectsSent, host)
		c.Counter("stack.host.redirects_rcvd", h.stats.RedirectsRcvd, host)
		c.Counter("stack.icmp.sent", h.icmp.Sent, host)
		c.Counter("stack.icmp.received", h.icmp.Received, host)
		c.Counter("stack.icmp.echo_requests", h.icmp.EchoRequests, host)
		c.Counter("stack.route_cache.hits", h.cacheStats.Hits, host)
		c.Counter("stack.route_cache.misses", h.cacheStats.Misses, host)
		c.Counter("stack.route_cache.invalidations", h.cacheStats.Invalidations, host)
	})
}

// armSweep keeps a reassembly-expiry sweep scheduled while partial
// fragments are held, and lets the timer die otherwise so an idle host
// leaves the event queue empty.
func (h *Host) armSweep() {
	if h.sweepArmed {
		return
	}
	h.sweepArmed = true
	h.loop.Lane(sweepLaneGranularity).Schedule(reassemblySweepInterval, func() {
		h.sweepArmed = false
		h.reasm.Sweep()
		if h.reasm.Pending() > 0 {
			h.armSweep()
		}
	})
}

// Reassembler exposes fragment-reassembly statistics.
func (h *Host) Reassembler() *ip.Reassembler { return h.reasm }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Loop returns the simulation loop the host runs on.
func (h *Host) Loop() *sim.Loop { return h.loop }

// Stats returns a snapshot of the host's counters.
func (h *Host) Stats() Stats { return h.stats }

// Routes returns the host's routing table.
func (h *Host) Routes() *RouteTable { return &h.routes }

// ICMP returns the host's ICMP endpoint (echo, error notifications).
func (h *Host) ICMP() *ICMP { return h.icmp }

// Loopback returns the loopback interface.
func (h *Host) Loopback() *Iface { return h.lo }

// SetForwarding enables or disables IP forwarding (routers, home agents).
func (h *Host) SetForwarding(v bool) { h.forwarding = v }

// Forwarding reports whether the host forwards packets.
func (h *Host) Forwarding() bool { return h.forwarding }

// AddFilter appends a forwarding filter (evaluated in order; first
// non-Accept verdict wins). Filters are adapted onto the FORWARD chain at
// PriForwardFilter — after the route decision, before the path-MTU check,
// exactly where the legacy filter list ran — named filter#NNN in
// insertion order so the (priority, name) sort preserves it.
func (h *Host) AddFilter(f FilterFunc) {
	name := fmt.Sprintf("filter#%03d", h.filterSeq)
	h.filterSeq++
	h.chains[pipeline.Forward].Register(pipeline.Hook[*PacketContext]{
		Name: name, Priority: PriForwardFilter,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			switch f(ctx.In, ctx.Out, ctx.Pkt) {
			case Drop:
				return ctx.drop("filtered", &h.stats.DropFilter)
			case Reject:
				return ctx.dropICMP("filtered (reject)", &h.stats.DropFilter, ip.ICMPDestUnreach, ip.CodeAdminProhibited)
			}
			return pipeline.Accept
		},
	})
}

// SetInstallRedirects controls whether received ICMP redirects install
// host routes, one of the transparency issues Section 5.2 discusses.
func (h *Host) SetInstallRedirects(v bool) { h.installRedirects = v }

// IfaceOpts configures AddIface.
type IfaceOpts struct {
	// PointToPoint disables ARP; frames go to the link broadcast address
	// and are filtered by IP address on receive, like the STRIP radio
	// driver's Starmode.
	PointToPoint bool
	// ARP tunes the ARP cache on broadcast media.
	ARP arp.Config
}

// AddIface attaches a device-backed interface with the given address and
// connected prefix, and wires the device's receive path into the stack.
// It does not add routes; call ConnectRoute or add them explicitly.
func (h *Host) AddIface(name string, dev *link.Device, addr ip.Addr, prefix ip.Prefix, opts IfaceOpts) *Iface {
	ifc := &Iface{
		host:         h,
		name:         name,
		addr:         addr,
		prefix:       prefix.Normalize(),
		dev:          dev,
		pointToPoint: opts.PointToPoint,
	}
	if !opts.PointToPoint {
		ifc.arp = arp.New(h.loop, dev, opts.ARP, func() []ip.Addr {
			if ifc.addr.IsUnspecified() {
				return nil
			}
			return []ip.Addr{ifc.addr}
		})
	}
	// Device reachability feeds Iface.Up(), which route decisions depend
	// on; the decision cache must not survive an up/down/attach change.
	dev.OnChange(h.InvalidateRoutes)
	dev.SetReceiver(func(f *link.Frame) {
		switch f.Type {
		case link.EtherTypeARP:
			if ifc.arp != nil {
				ifc.arp.HandleFrame(f)
			}
		case link.EtherTypeIPv4:
			pkt, err := ip.Unmarshal(f.Payload)
			if err != nil {
				h.stats.DropBadPacket++
				h.pktlog.Record(f.Trace, h.name, "ip.drop", "bad packet")
				return
			}
			pkt.Trace = f.Trace
			h.Input(ifc, pkt)
		}
	})
	h.ifaces = append(h.ifaces, ifc)
	h.InvalidateRoutes()
	return ifc
}

// AddVirtualIface attaches a software interface whose transmit function
// receives routed packets. transmit may be nil when a POSTROUTING hook
// owns the interface's egress instead, as the tunnel package's VIF does:
// the hook steals every packet routed to the interface before send.
func (h *Host) AddVirtualIface(name string, transmit TransmitFunc) *Iface {
	ifc := &Iface{host: h, name: name, transmit: transmit}
	h.ifaces = append(h.ifaces, ifc)
	h.InvalidateRoutes()
	return ifc
}

// Ifaces returns the host's interfaces, loopback first.
func (h *Host) Ifaces() []*Iface { return append([]*Iface(nil), h.ifaces...) }

// IfaceByName returns the named interface, or nil.
func (h *Host) IfaceByName(name string) *Iface {
	for _, i := range h.ifaces {
		if i.name == name {
			return i
		}
	}
	return nil
}

// ConnectRoute adds the directly-connected subnet route for ifc.
func (h *Host) ConnectRoute(ifc *Iface) {
	h.routes.Add(Route{Dst: ifc.prefix, Iface: ifc})
}

// AddDefaultRoute adds 0.0.0.0/0 via gw on ifc.
func (h *Host) AddDefaultRoute(gw ip.Addr, ifc *Iface) {
	h.routes.Add(Route{Dst: ip.Prefix{}, Gateway: gw, Iface: ifc})
}

// AddLocalAddr makes the host accept packets addressed to a beyond its
// interface addresses (the mobile host's home address while away).
func (h *Host) AddLocalAddr(a ip.Addr) {
	if h.localAddrs == nil { // maps are lazy: most fleet hosts never need one
		h.localAddrs = make(map[ip.Addr]bool)
	}
	h.localAddrs[a] = true
	h.InvalidateRoutes()
}

// RemoveLocalAddr undoes AddLocalAddr.
func (h *Host) RemoveLocalAddr(a ip.Addr) {
	delete(h.localAddrs, a)
	h.InvalidateRoutes()
}

// JoinGroup subscribes the host to a multicast group; traffic to it is
// accepted and delivered to protocol handlers.
func (h *Host) JoinGroup(g ip.Addr) error {
	if !g.IsMulticast() {
		return fmt.Errorf("stack: %v is not a multicast group", g)
	}
	if h.groups == nil {
		h.groups = make(map[ip.Addr]bool)
	}
	h.groups[g] = true
	h.InvalidateRoutes()
	return nil
}

// LeaveGroup unsubscribes the host from a multicast group.
func (h *Host) LeaveGroup(g ip.Addr) {
	delete(h.groups, g)
	h.InvalidateRoutes()
}

// InGroup reports whether the host has joined g.
func (h *Host) InGroup(g ip.Addr) bool { return h.groups[g] }

// IsLocalAddr reports whether a names this host: an interface address, an
// extra local address, a joined multicast group, loopback, or a broadcast
// form.
func (h *Host) IsLocalAddr(a ip.Addr) bool {
	if a.IsBroadcast() || a.IsLoopback() || h.localAddrs[a] {
		return true
	}
	if a.IsMulticast() {
		return h.groups[a]
	}
	for _, i := range h.ifaces {
		if !i.addr.IsUnspecified() && i.addr == a {
			return true
		}
		if i.dev != nil && i.prefix.Bits > 0 && a == i.prefix.BroadcastAddr() {
			return true
		}
	}
	return false
}

// RegisterHandler installs the protocol handler for locally delivered
// packets of protocol p, replacing any previous handler.
func (h *Host) RegisterHandler(p ip.Protocol, fn ProtocolHandler) {
	if h.handlers == nil {
		h.handlers = make(map[ip.Protocol]ProtocolHandler)
	}
	h.handlers[p] = fn
}

// SetRouteLookup replaces the route-lookup function — the paper's single
// kernel modification, kept as a convenience wrapper over the route-
// resolution chain: fn is registered as the hook named "override" at
// PriRouteOverride (replacing a previous one, the old single-slot
// semantics). Passing nil deregisters it, restoring the default
// longest-prefix match.
func (h *Host) SetRouteLookup(fn RouteLookupFunc) {
	if fn == nil {
		if !h.routeHooks.Deregister("override") {
			h.InvalidateRoutes() // parity with the legacy always-invalidate behavior
		}
		return
	}
	h.routeHooks.Register(pipeline.Hook[*RouteQuery]{
		Name: "override", Priority: PriRouteOverride,
		Fn: func(q *RouteQuery) pipeline.Verdict {
			q.Decision, q.Err = fn(q.Dst, q.Src)
			return pipeline.Stolen
		},
	})
}

// routeCacheKey identifies one memoizable lookup: the paper's
// ip_rt_route() arguments.
type routeCacheKey struct {
	dst, src ip.Addr
}

// RouteCacheStats counts route-decision cache activity. Invalidations is
// the number of cache flushes actually performed (generation bumps while
// the cache is already empty cost, and count, nothing).
type RouteCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// RouteCacheStats returns a snapshot of the cache counters.
func (h *Host) RouteCacheStats() RouteCacheStats { return h.cacheStats }

// InvalidateRoutes discards every cached route decision. The stack calls
// it on interface and local-address changes; mobility code calls it when
// policy state outside the routing table shifts (care-of address switch,
// Mobile Policy Table edit). Route-table mutations are covered by the
// table's own generation and need no explicit call.
func (h *Host) InvalidateRoutes() { h.routeGen++ }

// syncRouteCache flushes the decision caches if any guarded state moved
// since they were filled. Both generations are monotonic, so their sum
// changes whenever either does.
func (h *Host) syncRouteCache() {
	gen := h.routeGen + h.routes.gen
	if gen == h.routeCacheGen {
		return
	}
	if len(h.routeCache) > 0 || len(h.fwdCache) > 0 {
		clear(h.routeCache)
		clear(h.fwdCache)
		h.cacheStats.Invalidations++
	}
	h.routeCacheGen = gen
}

// RouteLookup answers a route query through the generation-guarded
// decision cache, consulting the route-resolution chain on a miss. Only
// successful decisions are cached; errors always re-run the chain.
func (h *Host) RouteLookup(dst, boundSrc ip.Addr) (RouteDecision, error) {
	h.syncRouteCache()
	key := routeCacheKey{dst: dst, src: boundSrc}
	if dec, ok := h.routeCache[key]; ok {
		h.cacheStats.Hits++
		return dec, nil
	}
	h.cacheStats.Misses++
	dec, err := h.resolveRoute(dst, boundSrc)
	if err == nil {
		if h.routeCache == nil {
			h.routeCache = make(map[routeCacheKey]RouteDecision)
		}
		h.routeCache[key] = dec
	}
	return dec, err
}

// lookupForward is the forwarding path's cached table lookup. The cache
// holds only the matched route; filters, MTU checks, and redirect logic
// still run per packet.
func (h *Host) lookupForward(dst ip.Addr) (Route, bool) {
	h.syncRouteCache()
	if r, ok := h.fwdCache[dst]; ok {
		h.cacheStats.Hits++
		return r, true
	}
	h.cacheStats.Misses++
	r, ok := h.routes.Lookup(dst)
	if ok {
		if h.fwdCache == nil {
			h.fwdCache = make(map[ip.Addr]Route)
		}
		h.fwdCache[dst] = r
	}
	return r, ok
}

// DefaultRouteLookup is the stock lookup: longest-prefix match on the
// routing table, source address defaulting to the outgoing interface's.
func (h *Host) DefaultRouteLookup(dst, boundSrc ip.Addr) (RouteDecision, error) {
	if h.IsLocalAddr(dst) && !dst.IsBroadcast() && !dst.IsMulticast() {
		src := boundSrc
		if src.IsUnspecified() {
			src = dst
		}
		return RouteDecision{Iface: h.lo, Src: src, NextHop: dst}, nil
	}
	r, ok := h.routes.Lookup(dst)
	if !ok {
		return RouteDecision{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	src := boundSrc
	if src.IsUnspecified() {
		src = r.Iface.addr
	}
	nh := r.Gateway
	if nh.IsUnspecified() {
		nh = dst
	}
	return RouteDecision{Iface: r.Iface, Src: src, NextHop: nh}, nil
}

// NextID returns a fresh IP identification value.
func (h *Host) NextID() uint16 {
	h.idSeq++
	return h.idSeq
}

// Output routes and transmits a locally originated packet. A zero TTL is
// replaced with the host default; an unspecified source is filled from the
// route decision, exactly as the paper describes: packets with a bound
// source are outside the scope of mobile IP, packets without one get
// whatever source the (possibly overridden) lookup chooses.
func (h *Host) Output(pkt *ip.Packet) error {
	if pkt.TTL == 0 {
		pkt.TTL = h.cfg.TTL
	}
	if pkt.ID == 0 {
		pkt.ID = h.NextID()
	}
	if pkt.Trace == 0 {
		pkt.Trace = h.loop.NextSerial()
	}
	ctx := &PacketContext{Host: h, Pkt: pkt, stage: pipeline.Output}
	dec, err := h.RouteLookup(pkt.Dst, pkt.Src)
	if err != nil {
		// The OUTPUT chain still runs, with RouteErr set: the terminal
		// "unreachable" hook converts the failure into an accounted drop
		// plus an ICMP Destination Unreachable to a bound source.
		ctx.RouteErr = err
		h.chains[pipeline.Output].Run(ctx)
		return err
	}
	ctx.Out, ctx.NextHop, ctx.Routed = dec.Iface, dec.NextHop, true
	if pkt.Src.IsUnspecified() {
		pkt.Src = dec.Src
	}
	if h.chains[pipeline.Output].Run(ctx) != pipeline.Accept {
		//lint:allow dropaccounting verdict bookkeeping is centralized in the chain observer middleware
		return nil
	}
	h.stats.Sent++
	if h.pktlog != nil { // guard: the detail string is costly to format
		h.pktlog.Record(pkt.Trace, h.name, "ip.output", pkt.String()+" via "+ctx.Out.name)
	}
	out, nh := ctx.Out, ctx.NextHop
	h.loop.Schedule(h.cfg.OutputDelay, func() { h.postroute(out, pkt, nh) })
	return nil
}

// OutputVia transmits pkt on a specific interface toward nextHop,
// bypassing route lookup. DHCP clients (which have no routable address
// yet) and other link-scoped senders use it.
func (h *Host) OutputVia(ifc *Iface, pkt *ip.Packet, nextHop ip.Addr) error {
	if pkt.TTL == 0 {
		pkt.TTL = h.cfg.TTL
	}
	if pkt.ID == 0 {
		pkt.ID = h.NextID()
	}
	if pkt.Trace == 0 {
		pkt.Trace = h.loop.NextSerial()
	}
	ctx := &PacketContext{Host: h, Out: ifc, Pkt: pkt, NextHop: nextHop, Routed: true, stage: pipeline.Output}
	if h.chains[pipeline.Output].Run(ctx) != pipeline.Accept {
		//lint:allow dropaccounting verdict bookkeeping is centralized in the chain observer middleware
		return nil
	}
	h.stats.Sent++
	if h.pktlog != nil { // guard: the detail string is costly to format
		h.pktlog.Record(pkt.Trace, h.name, "ip.output", pkt.String()+" via "+ctx.Out.name)
	}
	out, nh := ctx.Out, ctx.NextHop
	h.loop.Schedule(h.cfg.OutputDelay, func() { h.postroute(out, pkt, nh) })
	return nil
}

// Input accepts a packet arriving on ifc. The accept/forward/drop decision
// is made at arrival time — the interrupt path checks the destination
// against the host's current addresses immediately — while the input
// processing delay is charged before the packet reaches protocol handlers
// or the forwarding engine. Decapsulating modules reuse Input to re-inject
// inner packets.
func (h *Host) Input(ifc *Iface, pkt *ip.Packet) {
	if pkt.Trace == 0 {
		pkt.Trace = h.loop.NextSerial()
	}
	h.stats.Received++
	ctx := &PacketContext{Host: h, In: ifc, Pkt: pkt, stage: pipeline.Prerouting}
	h.chains[pipeline.Prerouting].Run(ctx)
}

// deliver runs the INPUT chain: reassembly, any decapsulation hooks, then
// the terminal protocol demux.
func (h *Host) deliver(ifc *Iface, pkt *ip.Packet) {
	ctx := &PacketContext{Host: h, In: ifc, Pkt: pkt, stage: pipeline.Input}
	h.chains[pipeline.Input].Run(ctx)
}

// forward runs the FORWARD chain (TTL, route, filters, MTU, redirect);
// an accepted packet is cloned, decremented, and scheduled out.
func (h *Host) forward(in *Iface, pkt *ip.Packet) {
	ctx := &PacketContext{Host: h, In: in, Pkt: pkt, stage: pipeline.Forward}
	if h.chains[pipeline.Forward].Run(ctx) != pipeline.Accept {
		//lint:allow dropaccounting verdict bookkeeping is centralized in the chain observer middleware
		return
	}
	// The forwarded copy shares the payload: bodies are immutable once in
	// flight, and only the header (TTL) is rewritten here.
	fwd := ctx.Pkt.ShallowClone()
	fwd.TTL--
	h.stats.Forwarded++
	if h.pktlog != nil { // guard: the detail string is costly to format
		h.pktlog.Record(pkt.Trace, h.name, "ip.forward", "next hop "+ctx.NextHop.String()+" via "+ctx.Out.name)
	}
	out, nh := ctx.Out, ctx.NextHop
	h.loop.Schedule(h.cfg.ForwardDelay, func() { h.postroute(out, fwd, nh) })
}
