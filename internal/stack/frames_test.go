package stack

import (
	"testing"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/pipeline"
	"mosquitonet/internal/sim"
)

// framesHost is a host on one Ethernet segment with a virtual interface
// (10.9.0.0/16) whose transmit discards, standing in for a tunnel VIF.
func framesHost(t testing.TB) (*sim.Loop, *node, *Iface) {
	loop := sim.New(1)
	n := addNode(t, loop, link.NewNetwork(loop, "n", link.Ethernet()), "h", "10.0.0.1/24")
	vif := n.host.AddVirtualIface("vif", func(*ip.Packet, ip.Addr) {})
	n.host.Routes().Add(Route{Dst: ip.MustParsePrefix("10.9.0.0/16"), Iface: vif})
	return loop, n, vif
}

// stamped is a UDP packet with the fields Output would fill already set,
// so a packet reused across runs takes the same path every time.
func stamped(src, dst string) *ip.Packet {
	p := udpPacket(src, dst, "payload")
	p.TTL, p.ID, p.Trace = ip.DefaultTTL, 1, 1
	return p
}

// checkFramesReleased asserts every chain run has popped its frame and
// left it zeroed.
func checkFramesReleased(t *testing.T, h *Host) {
	t.Helper()
	if h.depth != 0 {
		t.Fatalf("frame depth %d after all chain runs returned", h.depth)
	}
	for i, f := range h.frames {
		if *f != (PacketContext{}) {
			t.Fatalf("frame %d not zeroed on release: %+v", i, *f)
		}
	}
}

// TestChainNestingKeepsOuterContext re-enters the datapath from inside a
// chain run with the call each nesting producer makes — an OUTPUT drop's
// ICMP error, IPIP encapsulation from POSTROUTING, loopback re-injection
// into Input from POSTROUTING, IPIP decapsulation from INPUT — and asserts
// the outer hook's context is intact after the nested run returns.
func TestChainNestingKeepsOuterContext(t *testing.T) {
	cases := []struct {
		name  string
		stage pipeline.Stage
		// outer starts the outer chain run on pkt.
		outer func(h *Host, eth, vif *Iface, pkt *ip.Packet)
		// nest is what the outer hook does with its context.
		nest func(ctx *PacketContext, vif *Iface)
	}{
		{"icmp-error", pipeline.Output,
			func(h *Host, eth, _ *Iface, pkt *ip.Packet) { h.output(eth, pkt, pkt.Dst) },
			func(ctx *PacketContext, _ *Iface) {
				ctx.Host.icmp.sendError(ip.ICMPDestUnreach, ip.CodeAdminProhibited, ctx.Pkt)
			}},
		{"ipip-encap", pipeline.Postrouting,
			func(h *Host, _, vif *Iface, pkt *ip.Packet) { h.postroute(vif, pkt, pkt.Dst) },
			func(ctx *PacketContext, _ *Iface) {
				ctx.Host.Output(udpPacket("10.0.0.1", "10.0.0.2", "outer"))
			}},
		{"loopback", pipeline.Postrouting,
			func(h *Host, _, _ *Iface, pkt *ip.Packet) { h.postroute(h.lo, pkt, pkt.Dst) },
			func(ctx *PacketContext, _ *Iface) {
				ctx.Host.Input(ctx.Host.lo, udpPacket("127.0.0.1", "127.0.0.1", "looped"))
			}},
		{"ipip-decap", pipeline.Input,
			func(h *Host, eth, _ *Iface, pkt *ip.Packet) { h.deliver(eth, pkt) },
			func(ctx *PacketContext, vif *Iface) {
				ctx.Host.Input(vif, udpPacket("10.9.0.1", "10.0.0.1", "inner"))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loop, n, vif := framesHost(t)
			h := n.host
			collect(h)
			pkt := stamped("10.0.0.1", "10.0.0.1")
			maxDepth, ran := 0, false
			for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
				h.Hooks(s).Register(pipeline.Hook[*PacketContext]{
					Name: "depth", Priority: PriFirst,
					Fn: func(*PacketContext) pipeline.Verdict {
						maxDepth = max(maxDepth, h.depth)
						return pipeline.Accept
					},
				})
			}
			h.Hooks(tc.stage).Register(pipeline.Hook[*PacketContext]{
				Name: "outer", Priority: 0,
				Fn: func(ctx *PacketContext) pipeline.Verdict {
					if ctx.Pkt != pkt {
						return pipeline.Accept
					}
					before := *ctx
					tc.nest(ctx, vif)
					if *ctx != before {
						t.Errorf("outer %v context changed by the nested run:\n got %+v\nwant %+v", tc.stage, *ctx, before)
					}
					ran = true
					return pipeline.Stolen
				},
			})
			tc.outer(h, n.ifc, vif, pkt)
			if !ran {
				t.Fatal("outer hook never saw its packet")
			}
			if maxDepth != 2 {
				t.Fatalf("max chain depth %d, want 2 (one nested run)", maxDepth)
			}
			checkFramesReleased(t, h)
			loop.Run()
			checkFramesReleased(t, h)
		})
	}
}

// TestRetainedContextIsZeroed pins the lifetime rule: a hook that keeps
// its *PacketContext past the chain run finds it blank, not pointing at
// the packet or at a later packet's state.
func TestRetainedContextIsZeroed(t *testing.T) {
	loop, n, _ := framesHost(t)
	h := n.host
	collect(h)
	h.SetForwarding(true)
	var kept []*PacketContext
	seen := map[pipeline.Stage]bool{}
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		h.Hooks(s).Register(pipeline.Hook[*PacketContext]{
			Name: "retain", Priority: PriFirst,
			Fn: func(ctx *PacketContext) pipeline.Verdict {
				kept = append(kept, ctx)
				seen[ctx.Stage()] = true
				return pipeline.Accept
			},
		})
	}
	h.Output(udpPacket("0.0.0.0", "10.0.0.1", "self"))       // OUTPUT, POSTROUTING, PREROUTING, INPUT
	h.Input(n.ifc, udpPacket("10.0.0.2", "10.9.0.3", "fwd")) // PREROUTING, FORWARD, POSTROUTING
	loop.Run()
	if len(seen) != int(pipeline.NumStages) {
		t.Fatalf("retaining hooks saw stages %v, want all %d", seen, pipeline.NumStages)
	}
	for _, ctx := range kept {
		if *ctx != (PacketContext{}) {
			t.Fatalf("retained context not zeroed after its run: %+v", *ctx)
		}
	}
	checkFramesReleased(t, h)
}

// TestFiredHopHoldsNoPacket asserts a hand-off record drops its packet
// and interface when it fires, and that records are reused.
func TestFiredHopHoldsNoPacket(t *testing.T) {
	loop, n, _ := framesHost(t)
	h := n.host
	got := collect(h)
	for i := 0; i < 3; i++ {
		h.Input(n.ifc, udpPacket("10.0.0.2", "10.0.0.1", "local"))
		if h.hops != nil {
			t.Fatal("hand-off record on the free list while its event is pending")
		}
		loop.Run()
		x := h.hops
		if x == nil || x.next != nil {
			t.Fatal("want exactly one free hand-off record after the event fired")
		}
		if x.pkt != nil || x.ifc != nil {
			t.Fatalf("fired hand-off record still holds pkt=%v ifc=%v", x.pkt, x.ifc)
		}
	}
	if len(*got) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(*got))
	}
}

// TestChainDropPathsDoNotAllocate guards the allocation-free stage
// transitions: a chain run that drops without scheduling or sending an
// ICMP error allocates nothing once its frame exists.
func TestChainDropPathsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	loop := sim.New(1)
	a, _, router := twoSubnetTopology(t, loop)
	router.AddFilter(func(_, _ *Iface, _ *ip.Packet) Verdict { return Drop })
	a.host.Hooks(pipeline.Output).Register(pipeline.Hook[*PacketContext]{
		Name: "drop", Priority: 0,
		Fn: func(ctx *PacketContext) pipeline.Verdict { return ctx.Drop("") },
	})
	rin := router.IfaceByName("eth0")
	notLocal := stamped("10.0.0.9", "10.0.7.7")
	noHandler := stamped("10.0.0.9", "10.0.0.2")
	transit := stamped("10.0.0.2", "10.0.1.2")
	local := stamped("10.0.0.2", "10.0.0.9")
	cases := []struct {
		name    string
		run     func()
		counter *uint64
	}{
		{"prerouting-not-local", func() { a.host.Input(a.ifc, notLocal) }, &a.host.stats.DropNotLocal},
		{"input-no-handler", func() { a.host.deliver(a.ifc, noHandler) }, &a.host.stats.DropNoHandler},
		{"forward-filter", func() { router.forward(rin, transit) }, &router.stats.DropFilter},
		{"output-hook", func() { a.host.OutputVia(a.ifc, local, local.Dst) }, &a.host.stats.DropFilter},
	}
	for _, tc := range cases {
		before := *tc.counter
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per drop, want 0", tc.name, allocs)
		}
		if *tc.counter == before {
			t.Errorf("%s: drop counter did not move; the path under test was not taken", tc.name)
		}
	}
	if loop.Len() != 0 {
		t.Fatalf("drop paths scheduled %d events", loop.Len())
	}
}

// BenchmarkChainTraversal is the per-hook-chain row of the performance
// ledger: one packet through each stage's chain with the stock built-in
// hooks, including the timed hand-off a stage makes, which the next stage
// steals at its first hook. A warm-up packet runs before timing, so even
// -benchtime=1x reports steady-state allocations.
func BenchmarkChainTraversal(b *testing.B) {
	loop, n, vif := framesHost(b)
	h, in := n.host, n.ifc
	h.RegisterHandler(ip.ProtoUDP, func(*Iface, *ip.Packet) {})
	h.SetForwarding(true)
	sink := pipeline.Hook[*PacketContext]{
		Name: "bench-sink", Priority: PriFirst,
		Fn: func(*PacketContext) pipeline.Verdict { return pipeline.Stolen },
	}
	cases := []struct {
		name string
		next pipeline.Stage // where the stage hands off to (sunk there); NumStages for no hand-off
		pkt  *ip.Packet
		run  func(p *ip.Packet)
	}{
		{"prerouting", pipeline.Input, stamped("10.0.0.2", "10.0.0.1"), func(p *ip.Packet) { h.Input(in, p) }},
		{"input", pipeline.NumStages, stamped("10.0.0.2", "10.0.0.1"), func(p *ip.Packet) { h.deliver(in, p) }},
		{"forward", pipeline.Postrouting, stamped("10.0.0.2", "10.9.0.1"), func(p *ip.Packet) { h.forward(in, p) }},
		{"output", pipeline.Postrouting, stamped("10.0.0.1", "10.9.0.1"), func(p *ip.Packet) { h.Output(p) }},
		{"postrouting", pipeline.NumStages, stamped("10.0.0.1", "10.9.0.1"), func(p *ip.Packet) { h.postroute(vif, p, p.Dst) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			handsOff := tc.next < pipeline.NumStages
			if handsOff {
				h.Hooks(tc.next).Register(sink)
				defer h.Hooks(tc.next).Deregister(sink.Name)
			}
			step := func() {
				tc.run(tc.pkt)
				if handsOff {
					loop.Step()
				}
			}
			step() // grow the frame stack, hop free list and route caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
