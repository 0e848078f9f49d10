package link

import (
	"fmt"
	"testing"

	"mosquitonet/internal/sim"
)

// benchTransmit measures one frame's transmit plus delivery on a lossless
// Ethernet segment of the given size: devs[0] sends to the last-attached
// device (or to broadcast) and the loop runs the delivery event.
func benchTransmit(b *testing.B, devices int, broadcast bool) {
	loop := sim.New(1)
	n := NewNetwork(loop, "bench", Ethernet())
	devs := make([]*Device, devices)
	for i := range devs {
		d := NewDevice(loop, fmt.Sprintf("d%d", i), 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		d.SetReceiver(func(*Frame) {})
		devs[i] = d
	}
	loop.RunFor(0)
	f := &Frame{Dst: devs[devices-1].HW(), Type: EtherTypeIPv4, Payload: make([]byte, 64)}
	if broadcast {
		f.Dst = BroadcastHW
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := devs[0].Send(f); err != nil {
			b.Fatal(err)
		}
		loop.Run()
	}
	b.StopTimer()
	if got := devs[devices-1].Stats().Received; got != uint64(b.N) {
		b.Fatalf("receiver got %d of %d frames", got, b.N)
	}
}

// BenchmarkTransmitUnicast is the link layer's unicast ledger row: with
// MAC-indexed delivery its cost does not grow with the segment's size.
func BenchmarkTransmitUnicast(b *testing.B) {
	for _, n := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) { benchTransmit(b, n, false) })
	}
}

// BenchmarkTransmitBroadcast is the broadcast ledger row: every attached
// device is visited, so its cost grows linearly with the segment's size.
func BenchmarkTransmitBroadcast(b *testing.B) {
	for _, n := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) { benchTransmit(b, n, true) })
	}
}
