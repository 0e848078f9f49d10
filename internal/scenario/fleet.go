package scenario

import (
	"fmt"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// The fleet lowering replicates one campus region over shards: N mobile
// hosts split over campus shards — each with home, department and campus
// subnets, a router with a collocated home agent, and a local echo
// correspondent — joined to a hub shard (backbone router and echo
// correspondent) only by point-to-point trunks. Each host alternates
// between its two foreign subnets every switch period while probing the
// local correspondent and, every cross_every-th probe, the backbone one.
// Shard count, addressing and barrier grouping are pure functions of N,
// never of the worker count, so a fleet runs byte-identically at any
// worker count. Each shard gets a metrics registry but no tracer or
// packet log: a fleet cannot afford per-hop records (DESIGN.md §14).

// FleetProbes returns a fleet world's probe totals: sent, and echoed back.
func (w *World) FleetProbes() (sent, echoed uint64) {
	for k := range w.probesSent {
		sent += w.probesSent[k]
		echoed += w.probesEchoed[k]
	}
	return sent, echoed
}

// FleetShards maps fleet size to the number of campus shards (the hub
// shard comes on top). The upper tiers keep per-shard fleets in the low
// thousands: at 100k hosts, 64 campus shards of ~1560 hosts each.
func FleetShards(n int) int {
	switch {
	case n >= 65536:
		return 64
	case n >= 16384:
		return 32
	case n >= 1024:
		return 16
	case n >= 256:
		return 8
	case n >= 64:
		return 4
	case n >= 16:
		return 2
	default:
		return 1
	}
}

// barrierGroups partitions the shard indices for the two-level epoch
// barrier: campus shards in regions of up to size, the hub on its own.
// Grouping is pure mechanism (sim.SetGroups), so it cannot affect results.
func barrierGroups(campuses, size int) [][]int {
	groups := make([][]int, (campuses+size-1)/size, (campuses+size-1)/size+1)
	for i := 0; i < campuses; i++ {
		groups[i/size] = append(groups[i/size], i)
	}
	return append(groups, []int{campuses})
}

// The fleet addressing plan: shard k's plane p (0 home, 1 department,
// 2 campus) is 10.(10+3k+p).0.0/16 and the backbone 10.200.0.0/16, each
// with its router at .0.1 and its correspondent at .0.7; hosts spread over
// the low octets from .1.1. Trunk k is 10.250.k.0/24, hub side .1, shard
// side .2.
var fleetBackbonePfx = ip.Prefix{Addr: ip.Addr{10, 200, 0, 0}, Bits: 16}

func fleetPlane(k, p int) ip.Prefix {
	return ip.Prefix{Addr: ip.Addr{10, byte(10 + 3*k + p), 0, 0}, Bits: 16}
}

// fleetAddr returns host (hi, lo) of a /16 plane.
func fleetAddr(pfx ip.Prefix, hi, lo int) ip.Addr {
	return ip.Addr{pfx.Addr[0], pfx.Addr[1], byte(hi), byte(lo)}
}

// CompileFleet lowers a fleet spec at n mobile hosts onto a shard set:
// one loop per shard seeded sim.ShardSeed(seed+n, k), the hub built
// first, then the campus shards in index order. The world has not run;
// set a worker count on Shards if wanted, then RunFor.
func CompileFleet(seed int64, spec *Spec, n int) (*World, error) {
	if err := checkCompilable(spec); err != nil {
		return nil, err
	}
	if spec.Topology.Fleet == nil || n < 1 || n > maxFleetHosts {
		return nil, fmt.Errorf("scenario %q: cannot compile a fleet of %d hosts (want a fleet spec and 1..%d hosts)", spec.Name, n, maxFleetHosts)
	}
	return compileFleet(seed, spec, n, 0)
}

// compileFleet is CompileFleet with the last silent campus shards left
// without mobile hosts: full infrastructure, no events, so they exercise
// the barrier tree's skip path.
func compileFleet(seed int64, spec *Spec, n, silent int) (*World, error) {
	f := spec.Topology.Fleet
	campuses := FleetShards(n)
	if silent >= campuses {
		return nil, fmt.Errorf("scenario %q: %d silent campuses leave no shard for the fleet", spec.Name, silent)
	}
	active, hub := campuses-silent, campuses
	w := newWorld(spec)
	for k := 0; k <= hub; k++ {
		loop := sim.New(sim.ShardSeed(seed+int64(n), k))
		w.Loops = append(w.Loops, loop)
		w.Registries = append(w.Registries, metrics.Enable(loop))
	}
	trunk := link.Backbone()
	ss := sim.NewShardSet(w.Loops, trunk.MinLatency())
	ss.SetGroups(barrierGroups(campuses, f.BarrierGroupSize))
	metrics.RegisterShardSet(ss, w.Registries)
	w.Shards = ss
	w.probesSent, w.probesEchoed = make([]uint64, hub+1), make([]uint64, hub+1)

	hubLoop := w.Loops[hub]
	backbone := Attachment{Net: w.addNetwork(hubLoop, "scale-backbone", link.Ethernet()),
		Addr: fleetAddr(fleetBackbonePfx, 0, 1), Prefix: fleetBackbonePfx}
	hubRouter, _ := newRouter(hubLoop, "hub", f.RouterDelays, backbone)
	w.Routers["hub"] = hubRouter
	w.hosts["hub"] = hubRouter
	err := w.fleetEchoHost(hubLoop, "bb-ch", backbone)

	for k := 0; k < campuses && err == nil; k++ {
		loop := w.Loops[k]
		var planes [3]Attachment // home, department, campus
		for p, kind := range []string{"home", "dept", "campus"} {
			pfx := fleetPlane(k, p)
			planes[p] = Attachment{Net: w.addNetwork(loop, fmt.Sprintf("scale-%s%d", kind, k), link.Ethernet()),
				Addr: fleetAddr(pfx, 0, 1), Prefix: pfx}
		}
		name := fmt.Sprintf("router%d", k)
		router, ifaces := newRouter(loop, name, f.RouterDelays, planes[:]...)
		ts := transport.NewStack(router)
		w.Routers[name] = router
		w.RouterTS[name] = ts
		w.hosts[name] = router
		w.HAs[name], err = mip.NewHomeAgent(ts, mip.HomeAgentConfig{
			HomeIface: ifaces[0], HomePrefix: planes[0].Prefix, ProcessingDelay: f.HAProcessing.D(),
		})
		if err != nil {
			break
		}

		// Trunk to the hub: a single-device stub network per side, whose
		// transmits cross the shard boundary at the barrier.
		trunkPfx := ip.Prefix{Addr: ip.Addr{10, 250, byte(k), 0}, Bits: 24}
		hubSide, shardSide := ip.Addr{10, 250, byte(k), 1}, ip.Addr{10, 250, byte(k), 2}
		shardTrunk := w.addNetwork(loop, fmt.Sprintf("scale-trunk%d-s", k), trunk)
		hubTrunk := w.addNetwork(hubLoop, fmt.Sprintf("scale-trunk%d-h", k), trunk)
		shardTrunk.SetHandoff(func(fr *link.Frame, at sim.Time) {
			ss.Post(k, hub, at, func() { hubTrunk.DeliverLocal(fr) })
		})
		hubTrunk.SetHandoff(func(fr *link.Frame, at sim.Time) {
			ss.Post(hub, k, at, func() { shardTrunk.DeliverLocal(fr) })
		})
		trunkIfc := addRouterIface(router, Attachment{Net: shardTrunk, Addr: shardSide, Prefix: trunkPfx, PointToPoint: true})
		hubIfc := addRouterIface(hubRouter, Attachment{Net: hubTrunk, Addr: hubSide, Prefix: trunkPfx, PointToPoint: true})
		router.AddDefaultRoute(hubSide, trunkIfc)
		for _, a := range planes {
			hubRouter.Routes().Add(stack.Route{Dst: a.Prefix, Gateway: shardSide, Iface: hubIfc})
		}

		err = w.fleetEchoHost(loop, fmt.Sprintf("ch%d", k), planes[1])
		// This shard's slice of the fleet, contiguous in global host index;
		// silent campuses take none.
		if k < active {
			lo, hi := k*n/active, (k+1)*n/active
			for i := lo; i < hi && err == nil; i++ {
				err = w.fleetMobile(k, i, i-lo, planes)
			}
		}
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// addNetwork builds a fleet network, indexed by its own name.
func (w *World) addNetwork(loop *sim.Loop, name string, m link.Medium) *link.Network {
	n := link.NewNetwork(loop, name, m)
	w.Networks[name] = n
	return n
}

// fleetEchoHost builds the correspondent of a plane whose router is at
// plane.Addr: host .0.7, answering UDP echo on port 7.
func (w *World) fleetEchoHost(loop *sim.Loop, name string, plane Attachment) error {
	a := Attachment{Net: plane.Net, Addr: fleetAddr(plane.Prefix, 0, 7), Prefix: plane.Prefix}
	ts, _ := BuildEndHost(loop, name, a, plane.Addr, w.Spec.Topology.Fleet.HostDelay.D())
	w.Stacks[name] = ts
	w.hosts[name] = ts.Host()
	var sock *transport.UDPSocket
	sock, err := ts.UDP(ip.Unspecified, 7, func(d transport.Datagram) {
		sock.SendTo(d.From, d.FromPort, d.Payload)
	})
	return err
}

// fleetMobile builds global host i, the j-th of shard k, with a static
// interface on each foreign plane, and starts its roam and probe timers.
func (w *World) fleetMobile(k, i, j int, planes [3]Attachment) error {
	f, loop := w.Spec.Topology.Fleet, w.Loops[k]
	name := fmt.Sprintf("mh%04d", i)
	m := BuildMobile(loop, name, f.MobileDelay.D(), mip.MobileHostConfig{
		HomeAddr:   fleetAddr(planes[0].Prefix, 1+j/200, 1+j%200),
		HomePrefix: planes[0].Prefix,
		HomeAgent:  planes[0].Addr,
		Lifetime:   f.RegLifetime.D(),
	})
	var mis [2]*mip.ManagedIface
	for d, a := range planes[1:] {
		dev := fmt.Sprintf("eth%d", d)
		mi, err := AddMobileIface(m, MobileIfaceConfig{Name: dev, Device: dev, Net: a.Net,
			Static: &mip.StaticConfig{Addr: fleetAddr(a.Prefix, 1+j/200, 1+j%200), Prefix: a.Prefix, Gateway: a.Addr}})
		if err != nil {
			return err
		}
		mis[d] = mi
	}
	sock, err := m.Transport().UDP(ip.Unspecified, 0, func(transport.Datagram) { w.probesEchoed[k]++ })
	if err != nil {
		return err
	}
	w.Stacks[name] = m.Transport()
	w.Mobiles[name] = m
	w.hosts[name] = m.Host()

	// Both timers self-chain — each firing schedules the next — so a
	// resident fleet holds one pending roam and one pending probe per
	// host, not its whole schedule. Starts are staggered so registrations
	// are a stream, not a lockstep burst.
	stagger := time.Duration(i) * f.Stagger.D()
	local, backbone := fleetAddr(planes[1].Prefix, 0, 7), fleetAddr(fleetBackbonePfx, 0, 7)
	roams, probes := 0, 0
	var roam, probe func()
	roam = func() {
		m.ConnectForeign(mis[roams%2], nil)
		roams++
		if time.Duration(roams)*f.SwitchPeriod.D() < f.Duration.D() {
			loop.Schedule(f.SwitchPeriod.D(), roam)
		}
	}
	probe = func() {
		dst := local
		if probes%f.CrossEvery == f.CrossEvery-1 {
			dst = backbone
		}
		w.probesSent[k]++
		sock.SendTo(dst, 7, []byte("scale-probe"))
		probes++
		if f.ProbeStart.D()+time.Duration(probes)*f.ProbeInterval.D() < f.Duration.D() {
			loop.Schedule(f.ProbeInterval.D(), probe)
		}
	}
	loop.Schedule(stagger, roam)
	loop.Schedule(stagger+f.ProbeStart.D(), probe)
	return nil
}
