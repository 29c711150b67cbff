package comm

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestTagClassCounters: per-class accounting splits traffic by
// registered tag range, classes sum to the world totals, and negative
// (collective) tags land in the builtin class.
func TestTagClassCounters(t *testing.T) {
	w := NewWorld(2)
	w.DefineTagClass("halo", 200, 300)
	w.DefineTagClass("migrate", 100, 200)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 210, make([]byte, 40)) // halo
			p.Send(1, 150, make([]byte, 7))  // migrate
			p.Send(1, 999, make([]byte, 3))  // unregistered -> other
		} else {
			p.Recv(0, 210)
			p.Recv(0, 150)
			p.Recv(0, 999)
		}
		p.Barrier() // collective traffic
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.ClassStats("halo"); s.Messages != 1 || s.Bytes != 40 {
		t.Errorf("halo stats %+v", s)
	}
	if s := w.ClassStats("migrate"); s.Messages != 1 || s.Bytes != 7 {
		t.Errorf("migrate stats %+v", s)
	}
	if s := w.ClassStats("other"); s.Messages != 1 || s.Bytes != 3 {
		t.Errorf("other stats %+v", s)
	}
	if s := w.ClassStats("collective"); s.Messages != 2 {
		t.Errorf("collective stats %+v (barrier = 2 messages)", s)
	}
	var sum Stats
	for _, name := range w.ClassNames() {
		sum.add(w.ClassStats(name))
	}
	if total := w.TotalStats(); sum != total {
		t.Errorf("classes sum to %+v, world total %+v", sum, total)
	}
	if s := w.RankClassStats(0, "halo"); s.Messages != 1 {
		t.Errorf("rank 0 halo stats %+v", s)
	}
	if s := w.RankClassStats(1, "halo"); s.Messages != 0 {
		t.Errorf("rank 1 halo stats %+v (sends counted at sender)", s)
	}
	if s := w.ClassStats("no-such-class"); s != (Stats{}) {
		t.Errorf("unknown class stats %+v", s)
	}
}

// TestTagClassOverlapPanics: overlapping registrations are programming
// errors and must be rejected immediately.
func TestTagClassOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping tag class accepted")
		}
	}()
	w := NewWorld(1)
	w.DefineTagClass("a", 100, 200)
	w.DefineTagClass("b", 150, 250)
}

// TestBufferPoolRoundTrip: a buffer released by the receiver re-enters
// circulation with its capacity preserved, so a steady-state exchange
// reuses the same backing arrays instead of allocating.
func TestBufferPoolRoundTrip(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(p *Proc) error {
		b := p.AcquireBuffer()
		b.Int64(1)
		got := p.SendRecvBuffer(0, 5, b, 0, 5)
		if got != b {
			return fmt.Errorf("self exchange returned a different buffer")
		}
		p.ReleaseBuffer(got)
		cap0 := cap(got.Bytes())
		again := p.AcquireBuffer()
		if again != b {
			return fmt.Errorf("freelist did not return the released buffer")
		}
		if again.Len() != 0 || cap(again.Bytes()) != cap0 {
			return fmt.Errorf("reacquired buffer len %d cap %d, want 0 and %d",
				again.Len(), cap(again.Bytes()), cap0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCustomTransport: a world over a counting Tap behaves identically
// and every message flows through the wrapped path — the smallest
// proof that the transport seam is pluggable: the whole collective and
// point-to-point protocol must run unchanged over a wrapper.
func TestCustomTransport(t *testing.T) {
	const p = 4
	var sends atomic.Int64
	ct := &Tap{
		Transport: NewChanTransport(p, 0),
		OnSend:    func(int, int, Message) { sends.Add(1) },
	}
	w := NewWorldTransport(p, ct)
	err := w.Run(func(pr *Proc) error {
		sum := pr.AllReduceSum(float64(pr.Rank()))
		if sum != float64(p*(p-1)/2) {
			return fmt.Errorf("sum over custom transport = %g", sum)
		}
		pr.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sends.Load() == 0 {
		t.Error("custom transport saw no sends")
	}
	if total := w.TotalStats(); total.Messages != sends.Load() {
		t.Errorf("world counted %d messages, transport %d", total.Messages, sends.Load())
	}
}

// TestLatencyTransportDelaysCrossRankOnly: over the channel transport
// with a wire delay, a cross-rank message is not receivable before the
// delay has elapsed, messages on a link arrive in send order, the
// sends return without waiting for delivery, and a rank's message to
// itself is receivable at once.
func TestLatencyTransportDelaysCrossRankOnly(t *testing.T) {
	const delay = 20 * time.Millisecond
	tr := NewChanTransport(2, delay)
	defer tr.Close()
	sent := make(chan time.Time, 1)
	err := NewWorldTransport(2, tr).Run(func(p *Proc) error {
		if p.Rank() == 0 {
			start := time.Now()
			sent <- start
			for i := 0; i < 3; i++ {
				p.Send(1, 10+i, []byte{byte(i)})
			}
			p.Send(0, 20, []byte{9})
			if b := p.Recv(0, 20); len(b) != 1 || b[0] != 9 {
				t.Errorf("self message payload %v", b)
			}
			if d := time.Since(start); d >= delay {
				t.Errorf("three sends and a self round trip took %v, want under the %v latency", d, delay)
			}
			return nil
		}
		start := <-sent
		for i := 0; i < 3; i++ {
			b := p.Recv(0, 10+i)
			if i == 0 {
				if d := time.Since(start); d < delay {
					t.Errorf("first message receivable %v after the sends began, want ≥ %v", d, delay)
				}
			}
			if len(b) != 1 || b[0] != byte(i) {
				t.Errorf("message %d payload %v", i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesAllocationFree: once freelists are warm, barriers and
// reductions run without heap allocation (they carry pooled buffers).
func TestCollectivesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := NewWorld(4)
	err := w.Run(func(p *Proc) error {
		iter := func() {
			p.AllReduceSum(float64(p.Rank()))
			p.Barrier()
		}
		for i := 0; i < 8; i++ {
			iter() // warm freelists on every rank
		}
		p.Barrier()
		// Rank 0 measures; the others run the same 1+10 rounds plainly
		// (AllocsPerRun counts process-wide mallocs, so their steady
		// state must be clean too — exactly what is being asserted).
		if p.Rank() != 0 {
			for i := 0; i < 11; i++ {
				iter()
			}
			p.Barrier()
			return nil
		}
		allocs := testing.AllocsPerRun(10, iter)
		p.Barrier()
		if allocs != 0 {
			return fmt.Errorf("%g allocs per collective round", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
