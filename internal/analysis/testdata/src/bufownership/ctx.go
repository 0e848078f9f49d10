package fixture

// ---- retained borrowed chain contexts ----

// PacketContext mirrors the stack's hook context: the host's reusable
// frame for one chain run, borrowed by every hook it is passed to.
type PacketContext struct {
	Pkt  []byte
	Hops int
}

// Verdict mirrors pipeline.Verdict.
type Verdict int

type hookState struct {
	ctx   *PacketContext
	ctxs  []*PacketContext
	saved PacketContext
	pkts  [][]byte
	hops  int
}

var lastCtx *PacketContext

func (h *hookState) storeField(ctx *PacketContext) Verdict {
	h.ctx = ctx // want "chain context ctx retained past its chain run"
	return 0
}

func storeGlobal(ctx *PacketContext) Verdict {
	lastCtx = ctx // want "chain context ctx retained past its chain run"
	return 0
}

func (h *hookState) storeAggregate(ctx *PacketContext) Verdict {
	h.ctxs = append(h.ctxs, ctx) // want "chain context ctx retained past its chain run"
	return 0
}

func storeElement(ring []*PacketContext, ctx *PacketContext) Verdict {
	ring[0] = ctx // want "chain context ctx retained past its chain run"
	return 0
}

func (h *hookState) storeAlias(ctx *PacketContext) Verdict {
	c := ctx
	h.ctx = c // want "chain context ctx retained past its chain run"
	return 0
}

func scheduleCapture(ctx *PacketContext, schedule func(fn func())) Verdict {
	schedule(func() { work(ctx.Pkt) }) // want "chain context ctx captured by a closure"
	work(ctx.Pkt)                      // still borrowed, not reported as transferred
	return 0
}

func (h *hookState) allowedStore(ctx *PacketContext) Verdict {
	h.ctx = ctx //lint:allow bufownership fixture retains deliberately
	return 0
}

// copyOut is the sanctioned pattern: read fields during the run and keep
// (or schedule with) only the copies.
func (h *hookState) copyOut(ctx *PacketContext, schedule func(fn func())) Verdict {
	pkt, hops := ctx.Pkt, ctx.Hops
	h.pkts = append(h.pkts, ctx.Pkt)
	h.hops = ctx.Hops
	h.saved = *ctx
	schedule(func() { work(pkt); _ = hops })
	return 0
}

// valueContext takes a copy, not the borrowed frame.
func (h *hookState) valueContext(ctx PacketContext) Verdict {
	h.saved = ctx
	return 0
}
