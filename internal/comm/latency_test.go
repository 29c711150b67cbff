package comm

import (
	"testing"
	"time"
)

// TestLatencyTransportDelaysCrossRankOnly: a cross-rank message is not
// receivable before the configured latency has elapsed, messages on a
// link arrive in send order, the sends return without waiting for
// delivery, and a rank's message to itself is receivable at once.
func TestLatencyTransportDelaysCrossRankOnly(t *testing.T) {
	const delay = 20 * time.Millisecond
	tr := NewLatencyTransport(2, delay)
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
