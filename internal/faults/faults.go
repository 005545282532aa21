// Package faults is the fault-injection harness for the trace pipeline:
// seeded, deterministic plans that damage the trace stream the way real
// deployments do — lost ToPA output, corrupted buffer bytes, overflow
// desynchronization, wrap floods — plus checker-side stalls that wedge
// a guard.FleetPool's slots. A Plan plugs into ipt.Tracer via the
// ipt.WriteFault hook, and a test sleeps for its Stall draw in the
// pool's Hold hook; the guard under test is never modified, only its
// inputs are.
//
// The fault model follows the hardware's failure semantics: faults that
// lose output (Drop, Truncate, Delay) leave an in-band OVF packet, as
// the trace unit does when internal buffering overruns, so a correct
// decoder can detect the loss. BitFlip and Splice model memory
// corruption of the ToPA pages themselves — silent damage with no
// marker, which must surface as grammar errors or impossible flow.
package faults

import (
	"math/rand"
	"sync"
	"time"

	"flowguard/internal/trace/ipt"
)

var _ ipt.WriteFault = (*Plan)(nil)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// BitFlip flips 1–3 bits somewhere in the written bytes: silent
	// corruption of the buffer pages.
	BitFlip Kind = iota
	// Truncate cuts the write short mid-packet and marks the loss with
	// an OVF packet.
	Truncate
	// Splice inserts garbage bytes mid-write: a torn or misdirected DMA.
	Splice
	// InjectOVF prepends a spurious OVF packet without losing bytes:
	// pure desynchronization until the next PSB.
	InjectOVF
	// Drop discards the whole write, leaving only the OVF marker.
	Drop
	// Delay holds the write back and releases it before the next one,
	// after an OVF marker: late DMA arriving out of order.
	Delay
	// Wrap prepends a PAD flood that pushes the circular buffer past the
	// checker's cached window, forcing a resynchronizing re-snapshot.
	Wrap
	// Stall does not touch the stream: it wedges a checker-pool slot for
	// StallFor (via Plan.Stall), modeling checker overload.
	Stall
	// WorkerStall wedges an asynchronous checking worker at task pickup
	// for StallFor (via Plan.WorkerStall): the pipeline falls behind and
	// the gate must decode the backlog itself.
	WorkerStall
	// WorkerCrash panics an asynchronous checking worker at task pickup
	// (via Plan.WorkerCrash): the pool must contain the crash and the
	// backlog must still reach a verdict.
	WorkerCrash

	numKinds
)

// NumKinds is the number of fault classes.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	BitFlip: "bit-flip", Truncate: "truncate", Splice: "splice",
	InjectOVF: "inject-ovf", Drop: "drop", Delay: "delay",
	Wrap: "wrap", Stall: "stall", WorkerStall: "worker-stall",
	WorkerCrash: "worker-crash",
}

// sideKind reports a checker-side fault: it fires from pool hooks, not
// from tracer writes.
func sideKind(k Kind) bool {
	return k == Stall || k == WorkerStall || k == WorkerCrash
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "fault(?)"
}

// ovfMarker is a bare OVF packet, the in-band trace-loss marker.
var ovfMarker = []byte{0x02, 0xF3}

const (
	// DefaultWrapBurst is the PAD-flood size of a Wrap fault. It
	// comfortably exceeds the guard's default two-region 16 KiB ToPA,
	// so one Wrap fault evicts any cached window.
	DefaultWrapBurst = 20 << 10
	// DefaultStallFor is the StallFor of a zero Config field: long
	// enough to keep a pool's slots busy while other checks arrive
	// without slowing tests unduly.
	DefaultStallFor = 2 * time.Millisecond
)

// Config parameterizes a Plan. The zero value injects nothing.
type Config struct {
	// Seed makes the plan deterministic: equal configs produce equal
	// fault sequences for equal input sequences.
	Seed int64
	// Rates is the per-write (per-Stall-call for Stall) probability of
	// each fault kind. At most one fault fires per write; kinds are
	// tried in declaration order.
	Rates [numKinds]float64
	// StallFor is how long a Stall fault wedges a checker slot
	// (DefaultStallFor if zero).
	StallFor time.Duration
	// MaxFaults bounds the total number of injected faults
	// (0 = unlimited).
	MaxFaults int
}

// Plan is a live fault injector. It is safe for concurrent use (the
// tracer write path and the pool hooks may race); stream faults draw
// from their own generator, so their sequence is deterministic for a
// deterministic write sequence even while checker-side hooks (Stall,
// WorkerStall, WorkerCrash) race against the stream from worker
// goroutines — essential for comparing asynchronous runs against
// synchronous ones on identical trace bytes.
type Plan struct {
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand // stream-fault draws (per tracer write)
	side    *rand.Rand // checker-side draws (per pool hook call)
	pending []byte     // a delayed write awaiting release
	counts  [numKinds]uint64
	total   uint64
}

// sideSeedMix decorrelates the checker-side generator from the stream
// generator derived from the same seed.
const sideSeedMix int64 = 0x1e3779b97f4a7c15

// New returns a Plan for the config.
func New(cfg Config) *Plan {
	return &Plan{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		side: rand.New(rand.NewSource(cfg.Seed ^ sideSeedMix)),
	}
}

// FromSeed derives a whole plan deterministically from one seed: 1–3
// active fault kinds with rates in [0.01, 0.11). It is the chaos soak's
// plan generator — seed space is scenario space.
func FromSeed(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	var cfg Config
	cfg.Seed = seed
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		k := Kind(rng.Intn(int(numKinds)))
		cfg.Rates[k] = 0.01 + rng.Float64()*0.10
	}
	return New(cfg)
}

// Config returns the plan's configuration.
func (pl *Plan) Config() Config { return pl.cfg }

// Active reports whether the plan can inject kind k.
func (pl *Plan) Active(k Kind) bool { return pl.cfg.Rates[k] > 0 }

// Corrupting reports whether the plan includes kinds that damage packet
// framing or contents (BitFlip, Splice, Truncate — a mid-packet cut
// leaves a partial packet that can swallow the loss marker) and so can
// fabricate impossible-looking flow. Plans without them only lose,
// delay, or desynchronize trace — damage a decoder can always attribute
// to overflow.
func (pl *Plan) Corrupting() bool {
	return pl.Active(BitFlip) || pl.Active(Splice) || pl.Active(Truncate)
}

// Counts returns the number of injected faults per kind.
func (pl *Plan) Counts() [numKinds]uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.counts
}

// Total returns the total number of injected faults.
func (pl *Plan) Total() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.total
}

// draw picks the stream fault to inject for one write, or -1. Caller
// holds mu.
func (pl *Plan) draw() Kind {
	if pl.cfg.MaxFaults > 0 && pl.total >= uint64(pl.cfg.MaxFaults) {
		return -1
	}
	for k := Kind(0); k < numKinds; k++ {
		if sideKind(k) {
			continue // stream faults on writes, side kinds on pool hooks
		}
		if pl.cfg.Rates[k] > 0 && pl.rng.Float64() < pl.cfg.Rates[k] {
			pl.counts[k]++
			pl.total++
			return k
		}
	}
	return -1
}

// drawSide is one Bernoulli draw of a single checker-side kind from the
// side generator. Caller holds mu.
func (pl *Plan) drawSide(k Kind) bool {
	if pl.cfg.MaxFaults > 0 && pl.total >= uint64(pl.cfg.MaxFaults) {
		return false
	}
	if pl.cfg.Rates[k] > 0 && pl.side.Float64() < pl.cfg.Rates[k] {
		pl.counts[k]++
		pl.total++
		return true
	}
	return false
}

// Corrupt implements ipt.WriteFault: it returns the bytes that actually
// reach the ToPA for one tracer write. The caller's slice is never
// mutated or retained; a delayed write held from a previous call is
// released ahead of the current bytes.
func (pl *Plan) Corrupt(p []byte, off uint64) []byte {
	pl.mu.Lock()
	defer pl.mu.Unlock()

	var held []byte
	if len(pl.pending) > 0 {
		held = pl.pending
		pl.pending = nil
	}

	out := p
	switch pl.draw() {
	case BitFlip:
		out = append([]byte(nil), p...)
		for i, n := 0, 1+pl.rng.Intn(3); i < n && len(out) > 0; i++ {
			out[pl.rng.Intn(len(out))] ^= 1 << uint(pl.rng.Intn(8))
		}
	case Truncate:
		cut := 0
		if len(p) > 1 {
			cut = pl.rng.Intn(len(p) - 1)
		}
		out = append(append([]byte(nil), p[:cut]...), ovfMarker...)
	case Splice:
		at := 0
		if len(p) > 0 {
			at = pl.rng.Intn(len(p) + 1)
		}
		garbage := make([]byte, 1+pl.rng.Intn(4))
		for i := range garbage {
			garbage[i] = byte(pl.rng.Intn(256))
		}
		out = make([]byte, 0, len(p)+len(garbage))
		out = append(out, p[:at]...)
		out = append(out, garbage...)
		out = append(out, p[at:]...)
	case InjectOVF:
		out = append(append([]byte(nil), ovfMarker...), p...)
	case Drop:
		out = append([]byte(nil), ovfMarker...)
	case Delay:
		pl.pending = append([]byte(nil), p...)
		out = append([]byte(nil), ovfMarker...)
	case Wrap:
		out = append(make([]byte, DefaultWrapBurst), p...) // PAD flood, then the write
	}

	if held == nil {
		return out
	}
	return append(held, out...)
}

// Stall draws one checker-pool stall: the returned duration is how long
// the acquired slot stays wedged (zero = no fault this time). A test
// sleeps for it in guard.FleetPool.Hold.
func (pl *Plan) Stall() time.Duration {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.drawSide(Stall) {
		return 0
	}
	return pl.stallFor()
}

// WorkerStall implements guard.WorkerFaults: how long an async worker
// wedges at task pickup (zero = no fault this time).
func (pl *Plan) WorkerStall() time.Duration {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.drawSide(WorkerStall) {
		return 0
	}
	return pl.stallFor()
}

// WorkerCrash implements guard.WorkerFaults: whether an async worker
// crashes at task pickup.
func (pl *Plan) WorkerCrash() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.drawSide(WorkerCrash)
}

// stallFor returns the configured stall duration. Caller holds mu.
func (pl *Plan) stallFor() time.Duration {
	if pl.cfg.StallFor > 0 {
		return pl.cfg.StallFor
	}
	return DefaultStallFor
}
