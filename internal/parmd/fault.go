package parmd

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"sctuple/internal/comm"
)

// tagClass is one named traffic class: the half-open tag range of one
// exchange type.
type tagClass struct {
	name   string
	lo, hi int
}

// tagClasses is the one table of the simulation's traffic classes. The
// world's per-class counters (defineTagClasses), the fault taps' class
// lookup and scmd's -fault help all read it.
var tagClasses = []tagClass{
	{"migrate", tagMigrate, tagHalo},
	{"halo", tagHalo, tagForce},
	{"force", tagForce, tagHealth},
	{"health", tagHealth, tagHealth + 100},
	{"balance", tagBalance, tagBalance + 100},
	{"vote", tagVote, tagVote + 100},
}

// TagClassNames lists the traffic classes, in table order — the class
// names FaultTap and DelayTap accept.
func TagClassNames() []string {
	names := make([]string, len(tagClasses))
	for i, c := range tagClasses {
		names[i] = c.name
	}
	return names
}

// classTap returns a tap on tr that calls hook before every message of
// the named traffic class is sent, with n numbering those messages
// from 1, and the counter of messages matched so far.
func classTap(tr comm.Transport, class string, hook func(n int64, dst int, m comm.Message)) (*comm.Tap, *atomic.Int64, error) {
	i := slices.IndexFunc(tagClasses, func(c tagClass) bool { return c.name == class })
	if i < 0 {
		names := TagClassNames()
		last := len(names) - 1
		return nil, nil, fmt.Errorf("parmd: unknown fault class %q (want %s, or %s)",
			class, strings.Join(names[:last], ", "), names[last])
	}
	c := tagClasses[i]
	n := new(atomic.Int64)
	return &comm.Tap{Transport: tr, OnSend: func(_, dst int, m comm.Message) {
		if m.Tag >= c.lo && m.Tag < c.hi {
			hook(n.Add(1), dst, m)
		}
	}}, n, nil
}

// FaultTap wraps tr and corrupts every message of the named traffic
// class by appending 8 garbage bytes (no wire record size divides them)
// once the first `after` have passed clean — so a run can step
// healthily for a while before the fault lands mid-run. It is the
// fault the typed-error paths must turn into a *RankError instead of a
// process-killing panic, and the injection seam behind scmd's -fault
// flag. The count covers the messages sent through this tap: every
// rank of an in-process world, one rank of a socket fleet.
func FaultTap(tr comm.Transport, class string, after int) (*comm.Tap, error) {
	tap, _, err := classTap(tr, class, func(n int64, _ int, m comm.Message) {
		if n > int64(after) {
			m.Buf.Int64(0x0BAD)
		}
	})
	return tap, err
}

// DelayTap wraps tr and stalls the sender of each message of the named
// traffic class numbered (after, after+count] for delay — a step-time
// spike injector that perturbs performance without touching any
// payload. count <= 0 delays nothing: the counting dry-run
// configuration. matched reports how many class messages have been
// sent, so a caller can calibrate the window in messages per step with
// a clean dry run first.
func DelayTap(tr comm.Transport, class string, after, count int, delay time.Duration) (tap *comm.Tap, matched func() int64, err error) {
	tap, n, err := classTap(tr, class, func(n int64, _ int, _ comm.Message) {
		if n > int64(after) && n <= int64(after+count) {
			time.Sleep(delay)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return tap, n.Load, nil
}
