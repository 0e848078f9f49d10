package scenario

import (
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// The typed builders: the only code that constructs hosts. Both lowerings
// (Compile for named entities, CompileFleet for the replicated fleet) call
// them, and so do experiment drivers that graft an extra host onto a
// compiled world. Each takes resolved values — loop, networks, addresses,
// prefixes, durations — and performs its construction steps in one fixed
// order, because construction order is RNG-consumption order.

// Attachment is one resolved interface attachment: the network, the
// interface's address and connected prefix, and whether the link is
// point-to-point (no ARP).
type Attachment struct {
	Net          *link.Network
	Addr         ip.Addr
	Prefix       ip.Prefix
	PointToPoint bool
}

// newRouter builds a forwarding host with one interface per attachment.
func newRouter(loop *sim.Loop, name string, d Delays, at ...Attachment) (*stack.Host, []*stack.Iface) {
	h := stack.NewHost(loop, name, stack.Config{
		InputDelay:   d.Input.D(),
		OutputDelay:  d.Output.D(),
		ForwardDelay: d.Forward.D(),
	})
	ifaces := make([]*stack.Iface, len(at))
	for i, a := range at {
		ifaces[i] = addRouterIface(h, a)
	}
	h.SetForwarding(true)
	return h, ifaces
}

// addRouterIface attaches one router interface: device and interface are
// both named "r-<network>", the device comes up at once, and the connected
// route is installed.
func addRouterIface(h *stack.Host, a Attachment) *stack.Iface {
	name := "r-" + a.Net.Name()
	d := link.NewDevice(h.Loop(), name, 0, 0)
	d.Attach(a.Net)
	d.BringUp(nil)
	ifc := h.AddIface(name, d, a.Addr, a.Prefix, stack.IfaceOpts{PointToPoint: a.PointToPoint})
	h.ConnectRoute(ifc)
	return ifc
}

// BuildEndHost builds an ordinary (non-mobile) host: one "eth0" interface
// on device "<name>-eth", brought up at once, with a connected route and a
// default route via gw. It runs the loop for zero time so the bring-up
// lands before the host is used.
func BuildEndHost(loop *sim.Loop, name string, a Attachment, gw ip.Addr, delay time.Duration) (*transport.Stack, *stack.Iface) {
	h := stack.NewHost(loop, name, stack.Config{InputDelay: delay, OutputDelay: delay})
	d := link.NewDevice(loop, name+"-eth", 0, 0)
	d.Attach(a.Net)
	d.BringUp(nil)
	ifc := h.AddIface("eth0", d, a.Addr, a.Prefix, stack.IfaceOpts{PointToPoint: a.PointToPoint})
	h.ConnectRoute(ifc)
	h.AddDefaultRoute(gw, ifc)
	loop.RunFor(0)
	return transport.NewStack(h), ifc
}

// BuildMobile builds a mobile host with no interfaces yet; add them with
// AddMobileIface.
func BuildMobile(loop *sim.Loop, name string, delay time.Duration, cfg mip.MobileHostConfig) *mip.MobileHost {
	h := stack.NewHost(loop, name, stack.Config{InputDelay: delay, OutputDelay: delay})
	return mip.NewMobileHost(transport.NewStack(h), cfg)
}

// MobileIfaceConfig is one resolved managed interface of a mobile host.
type MobileIfaceConfig struct {
	Name, Device           string
	Net                    *link.Network // initial attachment; the device starts down
	BringUp, BringUpJitter time.Duration
	PointToPoint           bool
	// Static fixes the interface's foreign address; nil means it
	// configures itself by DHCP.
	Static *mip.StaticConfig
}

// AddMobileIface attaches a managed interface to m on a new device.
func AddMobileIface(m *mip.MobileHost, c MobileIfaceConfig) (*mip.ManagedIface, error) {
	d := link.NewDevice(m.Host().Loop(), c.Device, c.BringUp, c.BringUpJitter)
	d.Attach(c.Net)
	return m.AddInterface(c.Name, d, c.PointToPoint, c.Static)
}
