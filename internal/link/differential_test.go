package link

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
)

// The reference model below is the link layer's original delivery walk:
// every transmitted frame is carried past every device attached at
// transmit time, each of which applies its own up/down and MAC filter on
// arrival. The real Network visits only the receivers that can act on a
// lossless unicast and derives the rest (Device.fold); the differential
// test drives both with the same seeded operation sequences and requires
// identical observable results.

type refDevice struct {
	name          string
	hw            HWAddr
	loop          *sim.Loop
	net           *refNetwork
	state         State
	bringUpDelay  time.Duration
	bringUpJitter time.Duration
	recv          func(*Frame)
	promiscuous   bool
	stats         DeviceStats
	pktlog        *metrics.PacketLog
}

type refNetwork struct {
	name         string
	loop         *sim.Loop
	medium       Medium
	devices      []*refDevice
	stats        NetworkStats
	pktlog       *metrics.PacketLog
	busyUntil    sim.Time
	lastDelivery sim.Time
}

func (d *refDevice) Attach(n *refNetwork) {
	if d.net != nil {
		d.Detach()
	}
	d.net = n
	n.devices = append(n.devices, d)
}

func (d *refDevice) Detach() {
	if d.net == nil {
		return
	}
	for i, x := range d.net.devices {
		if x == d {
			d.net.devices = append(d.net.devices[:i], d.net.devices[i+1:]...)
			break
		}
	}
	d.net = nil
}

func (d *refDevice) BringUp() {
	if d.state == StateUp {
		return
	}
	delay := d.loop.Jitter(d.bringUpDelay, d.bringUpJitter)
	d.state = StateBringingUp
	d.loop.Schedule(delay, func() {
		if d.state == StateBringingUp {
			d.state = StateUp
		}
	})
}

func (d *refDevice) BringDown() { d.state = StateDown }

func (d *refDevice) Send(f *Frame) {
	f.Src = d.hw
	switch {
	case d.state != StateUp:
		d.stats.DroppedDown++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "device down")
	case d.net == nil:
		d.stats.DroppedNoNet++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "no network")
	case len(f.Payload) > d.net.medium.MTU:
		d.stats.DroppedMTU++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "exceeds MTU")
	default:
		d.stats.Sent++
		d.pktlog.Record(f.Trace, d.name, "link.tx", "dst="+f.Dst.String())
		d.net.transmit(d, f)
	}
}

func (d *refDevice) deliver(f *Frame) {
	if d.state != StateUp {
		d.stats.DroppedDown++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "device down on rx")
		return
	}
	if !d.promiscuous && !f.Dst.IsBroadcast() && f.Dst != d.hw {
		d.stats.DroppedFilter++
		return
	}
	d.stats.Received++
	d.pktlog.Record(f.Trace, d.name, "link.rx", "src="+f.Src.String())
	if d.recv != nil {
		d.recv(f)
	}
}

func (n *refNetwork) transmit(from *refDevice, f *Frame) {
	n.stats.Transmitted++
	start := n.loop.Now()
	if n.busyUntil > start {
		start = n.busyUntil
	}
	txEnd := start.Add(n.medium.serializationDelay(f.Len()))
	n.busyUntil = txEnd
	arrival := txEnd.Add(n.loop.Jitter(n.medium.Latency, n.medium.LatencyJitter))
	if arrival < n.lastDelivery {
		arrival = n.lastDelivery
	}
	n.lastDelivery = arrival
	var rx []*refDevice
	for _, d := range n.devices {
		if d == from {
			continue
		}
		if n.medium.LossProb > 0 && n.loop.Rand().Float64() < n.medium.LossProb {
			n.stats.LostMedium++
			n.pktlog.Record(f.Trace, n.name, "link.lost", "medium loss toward "+d.name)
			continue
		}
		rx = append(rx, d)
	}
	if len(rx) == 0 {
		return
	}
	fr := *f
	fr.Payload = append([]byte(nil), f.Payload...)
	n.loop.At(arrival, func() {
		for _, d := range rx {
			n.stats.Delivered++
			d.deliver(&fr)
		}
	})
}

// DeliverLocal walks a snapshot of the attached devices. (The walk it
// replaced ranged over the live slice, so a receiver callback that
// detached a later device shifted it out from under the loop and skipped
// one receiver; trunk stubs have a single device, so no world hit that.)
func (n *refNetwork) DeliverLocal(f *Frame) {
	for _, d := range append([]*refDevice(nil), n.devices...) {
		n.stats.Delivered++
		d.deliver(f)
	}
}

// linkModel is the surface the differential driver exercises, indexed by
// device and network number.
type linkModel interface {
	attach(dev, net int)
	detach(dev int)
	bringUp(dev int)
	bringDown(dev int)
	setPromiscuous(dev int, on bool)
	send(dev int, f *Frame)
	deliverLocal(net int, f *Frame)
	setLossProb(net int, p float64)
	setReceiver(dev int, fn func(*Frame))
	promiscuous(dev int) bool
	devStats(dev int) DeviceStats
	netStats(net int) NetworkStats
}

type realModel struct {
	devs []*Device
	nets []*Network
}

func (m *realModel) attach(d, n int)                    { m.devs[d].Attach(m.nets[n]) }
func (m *realModel) detach(d int)                       { m.devs[d].Detach() }
func (m *realModel) bringUp(d int)                      { m.devs[d].BringUp(nil) }
func (m *realModel) bringDown(d int)                    { m.devs[d].BringDown() }
func (m *realModel) setPromiscuous(d int, on bool)      { m.devs[d].SetPromiscuous(on) }
func (m *realModel) send(d int, f *Frame)               { m.devs[d].Send(f) }
func (m *realModel) setLossProb(n int, p float64)       { m.nets[n].SetLossProb(p) }
func (m *realModel) setReceiver(d int, fn func(*Frame)) { m.devs[d].SetReceiver(fn) }
func (m *realModel) promiscuous(d int) bool             { return m.devs[d].promiscuous }
func (m *realModel) devStats(d int) DeviceStats         { return m.devs[d].Stats() }
func (m *realModel) netStats(n int) NetworkStats        { return m.nets[n].Stats() }
func (m *realModel) deliverLocal(n int, f *Frame) {
	payload := bufpool.Get(len(f.Payload))
	copy(payload, f.Payload)
	m.nets[n].DeliverLocal(&Frame{Src: f.Src, Dst: f.Dst, Type: f.Type, Payload: payload, Trace: f.Trace})
}

type refModel struct {
	devs []*refDevice
	nets []*refNetwork
}

func (m *refModel) attach(d, n int)                    { m.devs[d].Attach(m.nets[n]) }
func (m *refModel) detach(d int)                       { m.devs[d].Detach() }
func (m *refModel) bringUp(d int)                      { m.devs[d].BringUp() }
func (m *refModel) bringDown(d int)                    { m.devs[d].BringDown() }
func (m *refModel) setPromiscuous(d int, on bool)      { m.devs[d].promiscuous = on }
func (m *refModel) send(d int, f *Frame)               { m.devs[d].Send(f) }
func (m *refModel) deliverLocal(n int, f *Frame)       { m.nets[n].DeliverLocal(f) }
func (m *refModel) setLossProb(n int, p float64)       { m.nets[n].medium.LossProb = p }
func (m *refModel) setReceiver(d int, fn func(*Frame)) { m.devs[d].recv = fn }
func (m *refModel) promiscuous(d int) bool             { return m.devs[d].promiscuous }
func (m *refModel) devStats(d int) DeviceStats         { return m.devs[d].stats }
func (m *refModel) netStats(n int) NetworkStats        { return m.nets[n].stats }

// diffConfig shapes one seeded differential run.
type diffConfig struct {
	devices, nets int
	ops           int
	lossy         bool // network 1 starts lossy and loss toggles at runtime
	pktlog        bool
	dupHW         bool // the last device shares the first one's address
}

// Frame payload layout: [id hi, id lo, reaction, target, dst network].
// A received frame's reaction runs inside the receiver callback.
const (
	reactNone = iota
	reactBringDown
	reactBringUp
	reactDetach
	reactAttach
	reactPromiscuous
	reactReply
	reactKinds
)

// diffRun builds one model on its own loop, replays the op script derived
// from seed, and returns everything observable: a log of receiver
// callbacks (with every device's Stats read inside each callback), per-op
// network and device stats, the packet log, and the next RNG value (equal
// only if both models drew the same number of times).
func diffRun(t *testing.T, seed int64, cfg diffConfig, real bool) string {
	t.Helper()
	loop := sim.New(seed)
	var plog *metrics.PacketLog
	if cfg.pktlog {
		plog = metrics.TracePackets(loop, 1<<16)
		defer metrics.Release(loop)
	}
	hws := make([]HWAddr, cfg.devices)
	for i := range hws {
		hws[i] = HWAddr{0x02, 0xd1, 0xff, byte(seed), byte(seed >> 8), byte(i)}
	}
	if cfg.dupHW {
		hws[cfg.devices-1] = hws[0]
	}
	var m linkModel
	var reg *metrics.Registry
	if real {
		reg = metrics.Enable(loop)
		defer metrics.Release(loop)
		rm := &realModel{}
		for i := 0; i < cfg.nets; i++ {
			rm.nets = append(rm.nets, NewNetwork(loop, fmt.Sprintf("n%d", i), Ethernet()))
		}
		for i := 0; i < cfg.devices; i++ {
			d := NewDevice(loop, fmt.Sprintf("d%d", i), time.Duration(i%3)*40*time.Microsecond, time.Duration(i%2)*10*time.Microsecond)
			d.hw = hws[i]
			rm.devs = append(rm.devs, d)
		}
		m = rm
	} else {
		fm := &refModel{}
		for i := 0; i < cfg.nets; i++ {
			fm.nets = append(fm.nets, &refNetwork{name: fmt.Sprintf("n%d", i), loop: loop, medium: Ethernet(), pktlog: plog})
		}
		for i := 0; i < cfg.devices; i++ {
			fm.devs = append(fm.devs, &refDevice{name: fmt.Sprintf("d%d", i), hw: hws[i], loop: loop,
				bringUpDelay: time.Duration(i%3) * 40 * time.Microsecond, bringUpJitter: time.Duration(i%2) * 10 * time.Microsecond, pktlog: plog})
		}
		m = fm
	}

	var out strings.Builder
	allStats := func() {
		for i := 0; i < cfg.devices; i++ {
			fmt.Fprintf(&out, " %v", m.devStats(i))
		}
		out.WriteByte('\n')
	}
	absent := HWAddr{0x02, 0xd1, 0xee, 0, 0, 1}
	dstFor := func(r *rand.Rand, self int) HWAddr {
		switch k := r.Intn(10); {
		case k < 6:
			return hws[r.Intn(cfg.devices)]
		case k < 7:
			return hws[self]
		case k < 8:
			return absent
		default:
			return BroadcastHW
		}
	}
	var replies uint16 = 0x8000
	for i := 0; i < cfg.devices; i++ {
		i := i
		m.setReceiver(i, func(f *Frame) {
			fmt.Fprintf(&out, "%v rx d%d id=%02x%02x", loop.Now(), i, f.Payload[0], f.Payload[1])
			allStats()
			x := int(f.Payload[3]) % cfg.devices
			switch f.Payload[2] {
			case reactBringDown:
				m.bringDown(x)
			case reactBringUp:
				m.bringUp(x)
			case reactDetach:
				m.detach(x)
			case reactAttach:
				m.attach(x, int(f.Payload[4])%cfg.nets)
			case reactPromiscuous:
				m.setPromiscuous(x, !m.promiscuous(x))
			case reactReply:
				replies++
				m.send(i, &Frame{Dst: hws[x], Payload: []byte{byte(replies >> 8), byte(replies), reactNone, 0, 0}, Trace: uint64(replies)})
			}
		})
	}

	// The op script comes from its own RNG so both models replay the same
	// sequence; the loop RNG is left to the link layer.
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < cfg.devices; i++ {
		m.attach(i, i%cfg.nets)
		if r.Intn(4) > 0 {
			m.bringUp(i)
		}
	}
	if cfg.lossy && cfg.nets > 1 {
		m.setLossProb(1, 0.3)
	}
	at := time.Duration(0)
	for op := 0; op < cfg.ops; op++ {
		at += time.Duration(r.Intn(40)) * time.Microsecond
		id := uint16(op + 1)
		d := r.Intn(cfg.devices)
		kind := r.Intn(20)
		dst := dstFor(r, d)
		react := byte(reactNone)
		if r.Intn(3) == 0 {
			react = byte(1 + r.Intn(reactKinds-1))
		}
		payload := []byte{byte(id >> 8), byte(id), react, byte(r.Intn(cfg.devices)), byte(r.Intn(cfg.nets))}
		var trace uint64
		if r.Intn(2) == 0 {
			trace = uint64(id)
		}
		net := r.Intn(cfg.nets)
		loss := 0.0
		if r.Intn(2) == 0 {
			loss = 0.3
		}
		loop.Schedule(at, func() {
			switch {
			case kind < 11:
				m.send(d, &Frame{Dst: dst, Type: EtherTypeIPv4, Payload: payload, Trace: trace})
			case kind < 12:
				m.detach(d)
			case kind < 14:
				m.attach(d, net)
			case kind < 15:
				m.bringDown(d)
			case kind < 17:
				m.bringUp(d)
			case kind < 18:
				m.setPromiscuous(d, !m.promiscuous(d))
			case kind < 19:
				m.deliverLocal(net, &Frame{Src: absent, Dst: dst, Type: EtherTypeIPv4, Payload: payload, Trace: trace})
			case cfg.lossy && net > 0:
				m.setLossProb(net, loss)
			}
			fmt.Fprintf(&out, "%v op%d kind=%d d%d", loop.Now(), op, kind, d)
			for n := 0; n < cfg.nets; n++ {
				fmt.Fprintf(&out, " %+v", m.netStats(n))
			}
			allStats()
		})
	}
	loop.Run()
	fmt.Fprintf(&out, "end rng=%d\n", loop.Rand().Int63())
	for n := 0; n < cfg.nets; n++ {
		fmt.Fprintf(&out, "%+v\n", m.netStats(n))
	}
	allStats()
	if reg != nil {
		checkRegistry(t, reg, m, cfg.devices)
	}
	if plog != nil {
		var buf bytes.Buffer
		if err := plog.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out.Write(buf.Bytes())
	}
	return out.String()
}

// checkRegistry requires the registry's per-device drop rows, which add
// the pending overheard charge at collection time, to agree with Stats.
func checkRegistry(t *testing.T, reg *metrics.Registry, m linkModel, devices int) {
	t.Helper()
	rows := map[string]uint64{}
	for _, ms := range reg.Snapshot().Metrics {
		if ms.Counter != nil && len(ms.Labels) == 1 {
			rows[ms.Name+" "+ms.Labels[0].Value] = *ms.Counter
		}
	}
	for i := 0; i < devices; i++ {
		st, dev := m.devStats(i), fmt.Sprintf("d%d", i)
		if rows["link.device.drop_filter "+dev] != st.DroppedFilter || rows["link.device.drop_down "+dev] != st.DroppedDown ||
			rows["link.device.rx_packets "+dev] != st.Received {
			t.Fatalf("%s: registry rows filter=%d down=%d rx=%d, Stats %+v", dev,
				rows["link.device.drop_filter "+dev], rows["link.device.drop_down "+dev], rows["link.device.rx_packets "+dev], st)
		}
	}
}

// TestDifferentialDelivery holds the indexed delivery to the reference
// walk across seeded op sequences: unicast to present, absent and self
// addresses, broadcast, trunk-style local delivery, attach/detach/
// re-attach and promiscuity toggles while frames are in flight, bring-up
// and bring-down (also from inside receiver callbacks), lossy media with
// loss toggled at runtime, the packet log on and off, and two devices
// sharing one hardware address.
func TestDifferentialDelivery(t *testing.T) {
	cfgs := []diffConfig{
		{devices: 6, nets: 1, ops: 300},
		{devices: 8, nets: 2, ops: 400},
		{devices: 8, nets: 2, ops: 400, lossy: true},
		{devices: 7, nets: 2, ops: 300, pktlog: true},
		{devices: 9, nets: 3, ops: 400, lossy: true, pktlog: true},
		{devices: 6, nets: 2, ops: 300, dupHW: true},
	}
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			want := diffRun(t, seed, cfg, false)
			got := diffRun(t, seed, cfg, true)
			if got != want {
				t.Fatalf("config %d %+v seed %d: indexed delivery diverges from the reference walk\n%s",
					ci, cfg, seed, firstDiff(want, got))
			}
		}
	}
}

// firstDiff reports the first differing line of two multi-line outputs.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  reference: %s\n  indexed:   %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: reference %d lines, indexed %d", len(w), len(g))
}
