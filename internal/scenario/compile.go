package scenario

import (
	"fmt"
	"sort"
	"time"

	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// World is a compiled scenario: the simulation loops plus every named
// entity the spec declared, keyed for lookup by the itinerary runner, the
// fault injector, the admin console and the experiment drivers. The maps
// are lookup-only — all iteration happens over the spec's ordered slices
// (or sorted keys), or accumulates order-free sums, so a compiled world
// stays deterministic.
type World struct {
	Spec *Spec

	// Loop, Tracer, Metrics and Packets belong to a single-loop world
	// (Compile); a sharded world (CompileFleet) leaves them nil.
	Loop    *sim.Loop
	Tracer  *trace.Tracer
	Metrics *metrics.Registry
	Packets *metrics.PacketLog

	// Shards couples a sharded world's loops; nil for a single-loop world.
	// Loops lists every loop the world owns, in shard-index order, and
	// Registries their metrics registries in parallel.
	Shards     *sim.ShardSet
	Loops      []*sim.Loop
	Registries []*metrics.Registry

	Networks map[string]*link.Network // by subnet name (fleet: network name)
	Prefixes map[string]ip.Prefix     // by subnet name
	Devices  map[string]*link.Device  // by device name
	Routers  map[string]*stack.Host   // by router name
	RouterTS map[string]*transport.Stack
	HAs      map[string]*mip.HomeAgent // by router name
	DHCPs    map[string]*dhcp.Server   // by router name
	Stacks   map[string]*transport.Stack
	Mobiles  map[string]*mip.MobileHost
	MIfaces  map[string]*mip.ManagedIface // by "mobile/iface"

	// hosts maps every host name (router, end host, mobile) to its
	// stack.Host, for the admin console's route/hook inspection.
	hosts map[string]*stack.Host

	Faults *Injector

	// probesSent/probesEchoed are a fleet's probe counters, indexed by
	// shard so each is written only by its own shard's goroutine.
	probesSent, probesEchoed []uint64
}

func newWorld(spec *Spec) *World {
	return &World{
		Spec:     spec,
		Networks: map[string]*link.Network{},
		Prefixes: map[string]ip.Prefix{},
		Devices:  map[string]*link.Device{},
		Routers:  map[string]*stack.Host{},
		RouterTS: map[string]*transport.Stack{},
		HAs:      map[string]*mip.HomeAgent{},
		DHCPs:    map[string]*dhcp.Server{},
		Stacks:   map[string]*transport.Stack{},
		Mobiles:  map[string]*mip.MobileHost{},
		MIfaces:  map[string]*mip.ManagedIface{},
		hosts:    map[string]*stack.Host{},
	}
}

// checkCompilable rejects specs the lowerings cannot take.
func checkCompilable(spec *Spec) error {
	if spec.Base != "" {
		return fmt.Errorf("scenario %q: unresolved base %q (call ResolveBase)", spec.Name, spec.Base)
	}
	return Validate(spec)
}

// Compile lowers a resolved, validated spec onto the simulator builders.
// The lowering walks the spec strictly in order — subnets, then routers
// (interfaces, forwarding, home agent, DHCP), then end hosts, then
// mobiles, then a zero-length run to let bring-ups land — because
// construction order is RNG-consumption order and therefore behavior.
// A fleet spec compiles at its first tier (see CompileFleet).
func Compile(seed int64, spec *Spec) (*World, error) {
	if err := checkCompilable(spec); err != nil {
		return nil, err
	}
	if f := spec.Topology.Fleet; f != nil {
		return compileFleet(seed, spec, f.Tiers[0], 0)
	}

	loop := sim.New(seed)
	w := newWorld(spec)
	w.Loop = loop
	w.Tracer = trace.New(loop)
	w.Metrics = metrics.Enable(loop)
	w.Packets = metrics.TracePackets(loop, 0)
	w.Loops = []*sim.Loop{loop}
	w.Registries = []*metrics.Registry{w.Metrics}

	for i := range spec.Topology.Subnets {
		s := &spec.Topology.Subnets[i]
		w.Networks[s.Name] = link.NewNetwork(loop, s.NetworkName(), medium(s.Medium))
		w.Prefixes[s.Name] = ip.MustParsePrefix(s.Prefix)
	}
	for i := range spec.Topology.Routers {
		if err := w.compileRouter(&spec.Topology.Routers[i]); err != nil {
			return nil, err
		}
	}
	for i := range spec.Topology.Hosts {
		w.compileEndHost(&spec.Topology.Hosts[i])
	}
	for i := range spec.Topology.Mobiles {
		if err := w.compileMobile(&spec.Topology.Mobiles[i]); err != nil {
			return nil, err
		}
	}
	loop.RunFor(0)

	w.Faults = newInjector(w)
	for i := range spec.Faults {
		if err := w.Faults.Schedule(spec.Faults[i]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// medium lowers a medium spec to the link layer's calibrated media.
func medium(m Medium) link.Medium {
	switch m.Kind {
	case "ethernet":
		return link.Ethernet()
	case "radio":
		return link.Radio()
	case "serial":
		return link.Serial()
	case "backbone":
		return link.Backbone()
	default: // "custom"; Validate rejects anything else
		return link.Medium{
			Name:          m.Name,
			Latency:       m.Latency.D(),
			LatencyJitter: m.LatencyJitter.D(),
			BitRate:       m.BitRate,
			LossProb:      m.LossProb,
			MTU:           m.MTU,
		}
	}
}

func (w *World) compileRouter(r *Router) error {
	at := make([]Attachment, len(r.Ifaces))
	for i := range r.Ifaces {
		ri := &r.Ifaces[i]
		at[i] = w.attachment(ri.Subnet, ri.Addr)
	}
	h, ifaces := newRouter(w.Loop, r.Name, r.Delays, at...)
	for _, ifc := range ifaces {
		w.Devices[ifc.Device().Name()] = ifc.Device()
	}
	ts := transport.NewStack(h)
	w.Routers[r.Name] = h
	w.RouterTS[r.Name] = ts
	w.hosts[r.Name] = h

	if has := r.HomeAgent; has != nil {
		ha, err := mip.NewHomeAgent(ts, mip.HomeAgentConfig{
			HomeIface:       h.IfaceByName("r-" + w.Networks[has.Subnet].Name()),
			HomePrefix:      w.Prefixes[has.Subnet],
			ProcessingDelay: has.Processing.D(),
			Tracer:          w.Tracer,
		})
		if err != nil {
			return fmt.Errorf("scenario %q: router %q: home agent: %w", w.Spec.Name, r.Name, err)
		}
		w.HAs[r.Name] = ha
	}
	if ds := r.DHCP; ds != nil {
		srv, err := dhcp.NewServer(ts, dhcp.ServerConfig{
			Pool:            w.Prefixes[ds.Subnet],
			FirstHost:       ds.FirstHost,
			LastHost:        ds.LastHost,
			Gateway:         ip.MustParseAddr(r.ifaceOn(ds.Subnet).Addr),
			ProcessingDelay: ds.Processing.D(),
		})
		if err != nil {
			return fmt.Errorf("scenario %q: router %q: dhcp: %w", w.Spec.Name, r.Name, err)
		}
		w.DHCPs[r.Name] = srv
	}
	return nil
}

func (w *World) compileEndHost(eh *EndHost) {
	ts, ifc := BuildEndHost(w.Loop, eh.Name, w.attachment(eh.Subnet, eh.Addr), ip.MustParseAddr(eh.Gateway), eh.Delay.D())
	w.Devices[ifc.Device().Name()] = ifc.Device()
	w.Stacks[eh.Name] = ts
	w.hosts[eh.Name] = ts.Host()
}

func (w *World) compileMobile(m *Mobile) error {
	mh := BuildMobile(w.Loop, m.Name, m.Delay.D(), mip.MobileHostConfig{
		HomeAddr:         ip.MustParseAddr(m.HomeAddr),
		HomePrefix:       w.Prefixes[m.HomeSubnet],
		HomeAgent:        ip.MustParseAddr(m.HomeAgent),
		Lifetime:         m.Lifetime.D(),
		ConfigureDelay:   m.ConfigureDelay.D(),
		RouteChangeDelay: m.RouteChangeDelay.D(),
		Tracer:           w.Tracer,
	})
	for i := range m.Ifaces {
		ic := &m.Ifaces[i]
		var static *mip.StaticConfig
		if ic.Static != nil {
			static = &mip.StaticConfig{
				Addr:    ip.MustParseAddr(ic.Static.Addr),
				Prefix:  w.Prefixes[ic.Attach],
				Gateway: ip.MustParseAddr(ic.Static.Gateway),
			}
		}
		mi, err := AddMobileIface(mh, MobileIfaceConfig{
			Name:          ic.Name,
			Device:        ic.Device,
			Net:           w.Networks[ic.Attach],
			BringUp:       ic.BringUp.D(),
			BringUpJitter: ic.BringUpJitter.D(),
			PointToPoint:  w.subnetSpec(ic.Attach).PointToPoint,
			Static:        static,
		})
		if err != nil {
			return fmt.Errorf("scenario %q: mobile %q: iface %q: %w", w.Spec.Name, m.Name, ic.Name, err)
		}
		w.Devices[ic.Device] = mi.Iface().Device()
		w.MIfaces[m.Name+"/"+ic.Name] = mi
	}
	w.Stacks[m.Name] = mh.Transport()
	w.Mobiles[m.Name] = mh
	w.hosts[m.Name] = mh.Host()
	return nil
}

// attachment resolves an interface on a named subnet.
func (w *World) attachment(subnet, addr string) Attachment {
	return Attachment{
		Net:          w.Networks[subnet],
		Addr:         ip.MustParseAddr(addr),
		Prefix:       w.Prefixes[subnet],
		PointToPoint: w.subnetSpec(subnet).PointToPoint,
	}
}

// subnetSpec returns the subnet spec by name; Compile runs only on
// validated specs, so the name resolves.
func (w *World) subnetSpec(name string) *Subnet {
	for i := range w.Spec.Topology.Subnets {
		if w.Spec.Topology.Subnets[i].Name == name {
			return &w.Spec.Topology.Subnets[i]
		}
	}
	return nil
}

// Host returns any named host's stack.Host (router, end host, or mobile).
func (w *World) Host(name string) (*stack.Host, bool) {
	h, ok := w.hosts[name]
	return h, ok
}

// HostNames returns every host name, sorted.
func (w *World) HostNames() []string {
	names := make([]string, 0, len(w.hosts))
	for n := range w.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunFor advances the simulation: every shard of a sharded world, or the
// single loop.
func (w *World) RunFor(d time.Duration) {
	if w.Shards != nil {
		w.Shards.RunFor(d)
		return
	}
	w.Loop.RunFor(d)
}

// Close releases every loop's process-global registrations (metrics,
// trace); call it when done with the world.
func (w *World) Close() {
	for _, l := range w.Loops {
		metrics.Release(l)
		trace.Release(l)
	}
}
