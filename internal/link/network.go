package link

import (
	"cmp"
	"slices"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
)

// Medium describes the physical characteristics of a broadcast domain.
type Medium struct {
	Name string

	// Latency is the one-way propagation plus link-level processing delay,
	// varied by ±LatencyJitter per frame.
	Latency       time.Duration
	LatencyJitter time.Duration

	// BitRate is the serialization rate in bits per second; zero means
	// serialization is free. The Metricom radio's effective 30-40 Kbit/s
	// is modeled here.
	BitRate int64

	// LossProb is the probability an individual receiver misses a frame.
	// Wired media use zero; radio uses a small nonzero rate.
	LossProb float64

	// MTU is the largest frame payload in bytes.
	MTU int
}

// serializationDelay returns the time to clock a frame of n bytes onto the
// medium.
func (m Medium) serializationDelay(n int) time.Duration {
	if m.BitRate <= 0 {
		return 0
	}
	return time.Duration(int64(n) * 8 * int64(time.Second) / m.BitRate)
}

// MinLatency returns the smallest possible arrival delta the medium can
// produce: propagation latency at the low end of its jitter range.
// Serialization only adds delay, so this lower-bounds every delivery and
// is the safe conservative lookahead for a shard boundary cut across this
// medium (sim.ShardSet).
func (m Medium) MinLatency() time.Duration {
	return m.Latency - m.LatencyJitter
}

// Ethernet returns a 10 Mbit/s wired Ethernet medium, matching the paper's
// PCMCIA Ethernet: sub-millisecond latency, effectively lossless.
func Ethernet() Medium {
	return Medium{
		Name:          "ethernet",
		Latency:       150 * time.Microsecond,
		LatencyJitter: 30 * time.Microsecond,
		BitRate:       10_000_000,
		LossProb:      0,
		MTU:           1500,
	}
}

// Radio returns a Metricom Starmode packet-radio medium as characterized in
// Section 4 of the paper: round-trip times of 200-250 ms through the radio
// interface and 30-40 Kbit/s effective throughput (nominal 100 Kbit/s),
// with occasional frame loss from the radio itself.
func Radio() Medium {
	return Medium{
		Name:          "radio",
		Latency:       100 * time.Millisecond, // one-way, so RTT ~200-250ms with jitter+serialization
		LatencyJitter: 10 * time.Millisecond,
		BitRate:       35_000,
		LossProb:      0.01,
		MTU:           1100, // STRIP's radio packet limit
	}
}

// Serial returns a 115.2 Kbit/s point-to-point serial medium, the paper's
// Handbook-to-radio link.
func Serial() Medium {
	return Medium{
		Name:          "serial",
		Latency:       time.Millisecond,
		LatencyJitter: 100 * time.Microsecond,
		BitRate:       115_200,
		MTU:           1500,
	}
}

// Backbone returns a campus-backbone trunk medium: a routed 100 Mbit/s
// point-to-point span with milliseconds of propagation delay. Its
// MinLatency of 1.9ms is what makes it suitable as a shard-boundary cut —
// the lookahead it grants dwarfs the per-epoch coordination cost.
func Backbone() Medium {
	return Medium{
		Name:          "backbone",
		Latency:       2 * time.Millisecond,
		LatencyJitter: 100 * time.Microsecond,
		BitRate:       100_000_000,
		LossProb:      0,
		MTU:           1500,
	}
}

// NetworkStats counts a broadcast domain's traffic.
type NetworkStats struct {
	Transmitted uint64 // frames offered to the medium
	Delivered   uint64 // frame arrivals, one per receiver in the transmit-time snapshot (filter and down rejects included)
	LostMedium  uint64 // deliveries dropped by the loss model
}

// Network is a broadcast domain: every attached, up device receives a copy
// of each transmitted frame addressed to it (or to broadcast), after the
// medium's serialization and propagation delays.
type Network struct {
	name    string
	loop    *sim.Loop
	medium  Medium
	devices []*Device
	stats   NetworkStats
	pktlog  *metrics.PacketLog

	// byHW finds a unicast frame's addressed device; promisc lists the
	// promiscuous devices in attachment order. dupHW counts attached
	// devices whose address another attached device already holds (only
	// possible once NextHWAddr wraps): while nonzero, unicast frames visit
	// every receiver. nextOrd numbers attachments, so attachment order is
	// ord order.
	byHW    map[HWAddr]*Device
	promisc []*Device
	dupHW   int
	nextOrd uint64

	// Overheard-frame accounting (Device.fold): uniSent and uniDone count
	// the counted flights — lossless unicast transmissions — transmitted
	// and delivered; inflight holds the ones still in transit, oldest
	// first. While a counted flight is being delivered, cur is that flight
	// and curOrd the ord of the receiver it has reached.
	uniSent, uniDone uint64
	inflight         []*flight
	cur              *flight
	curOrd           uint64

	// busyUntil models the shared half-duplex channel: a frame cannot
	// start clocking out before the previous one finished.
	busyUntil sim.Time
	// lastDelivery enforces FIFO delivery so latency jitter cannot reorder
	// frames within one broadcast domain, which real Ethernets and the
	// Metricom radio channel do not do either.
	lastDelivery sim.Time

	// taps observe every transmitted frame (packet capture).
	taps []func(from *Device, f *Frame)

	// handoff, when set, makes this network one end of a cross-shard
	// trunk: transmitted frames are handed to the hook (with their
	// computed arrival time) instead of being delivered locally. The far
	// end injects them via DeliverLocal on its own shard. Ownership of the
	// frame's pooled payload copy transfers to the hook.
	//
	//mnet:ownership takes f
	handoff func(f *Frame, arrival sim.Time)

	// flights recycles in-flight frame records (payload copy + receiver
	// snapshot) so steady-state transmission does not allocate per frame.
	flights []*flight
}

// flight is one frame in transit: a single shared copy of the payload,
// the number of receivers in its transmit-time snapshot, and the ones
// among them it visits. One heap event delivers to every visited receiver
// in attachment order — the same observable order per-receiver events
// produced, since their consecutive sequence numbers admitted no
// interleaving — and then recycles the record.
//
// A counted flight (seq > 0, a lossless unicast) visits only the
// addressed device and promiscuous devices; every other snapshot receiver
// overhears it and is charged by arithmetic (Device.fold). Lossy,
// broadcast and packet-logged frames visit every snapshot receiver.
type flight struct {
	net   *Network
	run   func() // deliver, bound once so scheduling does not allocate
	frame Frame
	from  *Device
	seq   uint64 // 1-based among the network's counted flights; 0 when every receiver is visited
	count uint64 // snapshot receivers: this flight's share of Delivered
	rx    []visit
}

// visit is one receiver a flight delivers to, with its attachment ordinal
// at the time it joined the list.
type visit struct {
	d   *Device
	ord uint64
}

// newFlight takes a recycled flight record.
func (n *Network) newFlight() *flight {
	if k := len(n.flights); k > 0 {
		fl := n.flights[k-1]
		n.flights[k-1] = nil
		n.flights = n.flights[:k-1]
		return fl
	}
	fl := &flight{net: n}
	fl.run = fl.deliver
	return fl
}

// clone returns a copy of f whose payload is a pooled copy of f's.
func (f *Frame) clone() Frame {
	payload := bufpool.Get(len(f.Payload))
	copy(payload, f.Payload)
	return Frame{Src: f.Src, Dst: f.Dst, Type: f.Type, Payload: payload, Trace: f.Trace}
}

// deliver hands the shared frame to each visited receiver, then recycles
// the payload copy and the flight record. Receivers must not retain the
// frame or its payload beyond the synchronous delivery chain (ip.Unmarshal
// and arp.Unmarshal both copy what they keep).
func (fl *flight) deliver() {
	n := fl.net
	n.stats.Delivered += fl.count
	if fl.seq > 0 {
		// Counted flights arrive in transmit order, so uniDone advancing to
		// seq charges this flight to every device that overheard it. The
		// sender and the visited receivers are exempt: their skip grows as
		// delivery passes them.
		n.uniDone = fl.seq
		n.cur, n.curOrd = fl, 0
		if from := fl.from; from.net == n && from.seen < fl.seq {
			from.skip++
		}
	}
	// len is re-read: Detach and SetPromiscuous from a receiver callback
	// may insert devices behind the cursor.
	for i := 0; i < len(fl.rx); i++ {
		v := fl.rx[i]
		if fl.seq > 0 {
			n.curOrd = v.ord
			if v.d.net == n && v.d.seen < fl.seq {
				v.d.skip++
			}
		}
		v.d.deliver(&fl.frame)
	}
	if fl.seq > 0 {
		n.cur = nil
		n.inflight = n.inflight[:copy(n.inflight, n.inflight[1:])]
	}
	clear(fl.rx)
	bufpool.Put(fl.frame.Payload)
	*fl = flight{net: n, run: fl.run, rx: fl.rx[:0]}
	n.flights = append(n.flights, fl)
}

// adopt inserts d, which just left the network or turned promiscuous, into
// the visited list of every counted flight it would otherwise overhear,
// so each arrival still charges it by its state at that moment. It runs
// after d folded, so a flight with seq <= d.seen either predates d's
// attachment or has already passed d.
func (n *Network) adopt(d *Device) {
	for _, fl := range n.inflight {
		if fl.seq > d.seen && fl.from != d && !fl.visits(d) {
			fl.insert(d)
		}
	}
}

// insert adds d to the visited list at its attachment-order position.
func (fl *flight) insert(d *Device) {
	j := len(fl.rx)
	for j > 0 && fl.rx[j-1].ord > d.ord {
		j--
	}
	fl.rx = slices.Insert(fl.rx, j, visit{d, d.ord})
}

func (fl *flight) visits(d *Device) bool {
	for _, v := range fl.rx {
		if v.d == d {
			return true
		}
	}
	return false
}

// AddTap registers an observer invoked for every frame offered to the
// medium, before loss and delivery — a passive sniffer on the wire.
func (n *Network) AddTap(fn func(from *Device, f *Frame)) {
	n.taps = append(n.taps, fn)
}

// NewNetwork creates a broadcast domain over the given medium.
func NewNetwork(loop *sim.Loop, name string, m Medium) *Network {
	n := &Network{name: name, loop: loop, medium: m, pktlog: metrics.PacketsFor(loop)}
	if reg := metrics.For(loop); reg != nil {
		lbl := metrics.L("net", name)
		reg.CounterFunc("link.network.transmitted", func() uint64 { return n.stats.Transmitted }, lbl)
		reg.CounterFunc("link.network.delivered", func() uint64 { return n.stats.Delivered }, lbl)
		reg.CounterFunc("link.network.lost_medium", func() uint64 { return n.stats.LostMedium }, lbl)
	}
	return n
}

// Name returns the network name, e.g. "net-36.135".
func (n *Network) Name() string { return n.name }

// Medium returns the network's medium description.
func (n *Network) Medium() Medium { return n.medium }

// SetLossProb changes the medium's loss probability at runtime — the
// fault-injection seam for loss bursts. The loss model reads the
// probability per frame, so the change applies to the next transmission;
// frames already in flight keep the draw they were given. Returns the
// previous probability so the injector can restore it when the burst
// heals.
func (n *Network) SetLossProb(p float64) (prev float64) {
	prev = n.medium.LossProb
	n.medium.LossProb = p
	return prev
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// Devices returns the attached devices.
func (n *Network) Devices() []*Device { return append([]*Device(nil), n.devices...) }

// add attaches d behind every device already attached. Flights already in
// transit are not charged to it: its fold baseline starts at uniSent.
func (n *Network) add(d *Device) {
	n.devices = append(n.devices, d)
	n.nextOrd++
	d.ord, d.seen, d.skip = n.nextOrd, n.uniSent, 0
	if _, taken := n.byHW[d.hw]; taken {
		n.dupHW++
	} else {
		if n.byHW == nil {
			n.byHW = make(map[HWAddr]*Device)
		}
		n.byHW[d.hw] = d
	}
	if d.promiscuous {
		n.promisc = append(n.promisc, d)
	}
}

func (n *Network) remove(d *Device) {
	n.devices = slices.DeleteFunc(n.devices, func(x *Device) bool { return x == d })
	n.promisc = slices.DeleteFunc(n.promisc, func(x *Device) bool { return x == d })
	switch {
	case n.byHW[d.hw] != d:
		n.dupHW-- // d was the shadowed duplicate
	case n.dupHW == 0:
		delete(n.byHW, d.hw)
	default:
		delete(n.byHW, d.hw)
		if i := slices.IndexFunc(n.devices, func(x *Device) bool { return x.hw == d.hw }); i >= 0 {
			n.byHW[d.hw] = n.devices[i]
			n.dupHW--
		}
	}
}

// setPromiscuous keeps the promiscuous list in attachment order.
func (n *Network) setPromiscuous(d *Device, on bool) {
	if !on {
		n.promisc = slices.DeleteFunc(n.promisc, func(x *Device) bool { return x == d })
		return
	}
	i, _ := slices.BinarySearchFunc(n.promisc, d.ord, func(x *Device, ord uint64) int { return cmp.Compare(x.ord, ord) })
	n.promisc = slices.Insert(n.promisc, i, d)
	n.adopt(d)
}

// transmit schedules delivery of f from device from to every other attached
// device. Each receiver independently suffers the medium's loss
// probability, which matches radio behaviour (receivers miss frames
// individually, not collectively).
func (n *Network) transmit(from *Device, f *Frame) {
	n.stats.Transmitted++
	if len(n.taps) > 0 {
		// Taps see a copy: they are called through function values, so
		// handing them f itself would move every sender's frame to the heap.
		tf := *f
		for _, tap := range n.taps {
			tap(from, &tf)
		}
	}
	now := n.loop.Now()
	start := now
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
	if n.handoff != nil {
		// Trunk end: the medium's loss model draws once (a point-to-point
		// span has one receiver, on the far shard), then ownership of a
		// pooled payload copy transfers to the hook. All delay modeling
		// happened here on the transmit side; the far end delivers at
		// `arrival` with no further delay.
		if n.medium.LossProb > 0 && n.loop.Rand().Float64() < n.medium.LossProb {
			n.stats.LostMedium++
			if n.pktlog != nil {
				n.pktlog.Record(f.Trace, n.name, "link.lost", "medium loss on trunk")
			}
			return
		}
		fr := f.clone()
		n.handoff(&fr, arrival)
		return
	}
	if len(n.devices) < 2 {
		//lint:allow dropaccounting the sender is the only attached device, so the frame has no receiver to reach or miss
		return
	}
	var fl *flight
	if n.medium.LossProb > 0 || f.Dst.IsBroadcast() || n.pktlog != nil || n.dupHW > 0 {
		// Visit every snapshot receiver. Loss draws stay per-receiver in
		// attachment order, so the RNG consumption sequence is identical to
		// per-receiver scheduling; a packet log records each receiver's
		// verdict. The payload is copied lazily: a frame every receiver
		// loses costs nothing.
		for _, d := range n.devices {
			if d == from {
				continue
			}
			if n.medium.LossProb > 0 && n.loop.Rand().Float64() < n.medium.LossProb {
				n.stats.LostMedium++
				if n.pktlog != nil {
					n.pktlog.Record(f.Trace, n.name, "link.lost", "medium loss toward "+d.name)
				}
				continue
			}
			if fl == nil {
				fl = n.newFlight()
				fl.frame = f.clone()
			}
			fl.rx = append(fl.rx, visit{d, d.ord})
		}
		if fl == nil {
			//lint:allow dropaccounting every receiver lost the frame; each loss was counted in LostMedium above
			return
		}
		fl.count = uint64(len(fl.rx))
	} else {
		// Lossless unicast: visit the addressed device and the promiscuous
		// ones, in attachment order; the rest overhear it (Device.fold).
		fl = n.newFlight()
		fl.frame = f.clone()
		n.uniSent++
		fl.seq, fl.from, fl.count = n.uniSent, from, uint64(len(n.devices)-1)
		for _, d := range n.promisc {
			if d != from {
				fl.rx = append(fl.rx, visit{d, d.ord})
			}
		}
		if dst := n.byHW[f.Dst]; dst != nil && dst != from && !dst.promiscuous {
			fl.insert(dst)
		}
		n.inflight = append(n.inflight, fl)
	}
	n.loop.At(arrival, fl.run)
}

// SetHandoff marks this network as the local end of a cross-shard trunk.
// Transmitted frames are passed to fn — with an owned payload copy and the
// fully modeled arrival time — instead of being delivered on this shard.
// fn runs on this shard's goroutine; it must hand the frame to the far
// shard via sim.ShardSet.Post, never touch the far shard directly.
func (n *Network) SetHandoff(fn func(f *Frame, arrival sim.Time)) {
	n.handoff = fn
}

// DeliverLocal delivers a frame received over a trunk to every attached
// device (a trunk stub has one), then recycles the frame's payload. It
// must run on this network's own loop (the coordinator schedules it at the
// arrival time the transmit side computed). The frame's payload must be
// pool-owned by the caller; ownership transfers here.
//
//mnet:ownership takes f
func (n *Network) DeliverLocal(f *Frame) {
	fl := n.newFlight()
	fl.frame = Frame{Src: f.Src, Dst: f.Dst, Type: f.Type, Payload: f.Payload, Trace: f.Trace}
	f.Payload = nil
	for _, d := range n.devices {
		fl.rx = append(fl.rx, visit{d, d.ord})
	}
	fl.count = uint64(len(fl.rx))
	fl.deliver()
}
