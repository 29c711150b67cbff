package parmd

import (
	"fmt"
	"sync/atomic"
	"time"

	"sctuple/internal/comm"
)

// FaultTransport wraps the in-process channel transport and corrupts
// messages of one traffic class by appending garbage, so payloads stop
// being a whole number of wire records — the fault the typed-error
// paths must turn into a *RankError instead of a process-killing
// panic, and the injection seam behind scmd's -fault flag for
// exercising the postmortem pipeline on demand. It forwards RecvChan,
// keeping the world's abort protocol able to unblock healthy ranks.
type FaultTransport struct {
	comm.AsyncTransport
	lo, hi int
	after  int64
	n      atomic.Int64
	// Dst, when non-nil, restricts corruption to matching destination
	// ranks (poison one rank, watch its peers unwind via abort).
	Dst func(dst int) bool
}

// faultClasses mirrors defineTagClasses: the tag range of each named
// traffic class a fault can target.
var faultClasses = map[string][2]int{
	"migrate": {tagMigrate, tagHalo},
	"halo":    {tagHalo, tagForce},
	"force":   {tagForce, tagHealth},
	"health":  {tagHealth, tagHealth + 100},
	"balance": {tagBalance, tagBalance + 100},
	"vote":    {tagVote, tagVote + 100},
}

// NewFaultTransport builds a transport for a ranks-sized world that
// corrupts every message of the named traffic class ("migrate",
// "halo", "force", "health", "balance", "vote") after the first `after`
// matching messages have passed clean — so a run can step healthily
// for a while before the fault lands mid-run.
func NewFaultTransport(ranks int, class string, after int) (*FaultTransport, error) {
	r, ok := faultClasses[class]
	if !ok {
		return nil, fmt.Errorf("parmd: unknown fault class %q (want migrate, halo, force, health, balance, or vote)", class)
	}
	return &FaultTransport{
		AsyncTransport: comm.NewChanTransport(ranks).(comm.AsyncTransport),
		lo:             r[0], hi: r[1], after: int64(after),
	}, nil
}

// SetAbort forwards the world's abort channel to the wrapped channel
// transport so blocked sends stay interruptible under injection (the
// interface-typed embed does not promote the extension).
func (t *FaultTransport) SetAbort(ch <-chan struct{}) {
	if a, ok := t.AsyncTransport.(comm.AbortAware); ok {
		a.SetAbort(ch)
	}
}

// Send forwards the message, appending 8 garbage bytes (no wire record
// size divides them) once the class's clean-message budget is spent.
func (t *FaultTransport) Send(src, dst int, m comm.Message) {
	if m.Tag >= t.lo && m.Tag < t.hi && (t.Dst == nil || t.Dst(dst)) && t.n.Add(1) > t.after {
		m.Buf.Int64(0x0BAD)
	}
	t.AsyncTransport.Send(src, dst, m)
}

// DelayTransport wraps the in-process channel transport and stalls the
// sender of messages in one traffic class for a fixed duration over a
// bounded window of matching messages — a step-time spike injector
// that perturbs performance without touching any payload. Matched
// reports how many class messages passed, so a caller can calibrate
// the window in messages-per-step with a clean dry run first.
type DelayTransport struct {
	comm.AsyncTransport
	lo, hi       int
	after, count int64
	delay        time.Duration
	n            atomic.Int64
}

// NewDelayTransport builds a transport for a ranks-sized world that
// sleeps for delay on each message of the named class (the classes of
// NewFaultTransport) numbered (after, after+count]. count <= 0 delays
// nothing — the counting dry-run configuration.
func NewDelayTransport(ranks int, class string, after, count int, delay time.Duration) (*DelayTransport, error) {
	r, ok := faultClasses[class]
	if !ok {
		return nil, fmt.Errorf("parmd: unknown fault class %q (want migrate, halo, force, health, balance, or vote)", class)
	}
	return &DelayTransport{
		AsyncTransport: comm.NewChanTransport(ranks).(comm.AsyncTransport),
		lo:             r[0], hi: r[1],
		after: int64(after), count: int64(count), delay: delay,
	}, nil
}

// SetAbort forwards the world's abort channel to the wrapped channel
// transport, exactly like FaultTransport.SetAbort.
func (t *DelayTransport) SetAbort(ch <-chan struct{}) {
	if a, ok := t.AsyncTransport.(comm.AbortAware); ok {
		a.SetAbort(ch)
	}
}

// Matched returns how many messages of the target class have been
// sent so far.
func (t *DelayTransport) Matched() int64 { return t.n.Load() }

// Send stalls inside the delay window, then forwards the message.
func (t *DelayTransport) Send(src, dst int, m comm.Message) {
	if m.Tag >= t.lo && m.Tag < t.hi {
		if n := t.n.Add(1); n > t.after && n <= t.after+t.count {
			time.Sleep(t.delay)
		}
	}
	t.AsyncTransport.Send(src, dst, m)
}
