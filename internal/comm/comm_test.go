package comm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"sctuple/internal/geom"
)

func TestSendRecvRoundTrip(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			var b Buffer
			b.Int64(42)
			b.Vec3(geom.V(1, 2, 3))
			p.Send(1, 7, b.Bytes())
			r := NewReader(p.Recv(1, 8))
			if got := r.Int64(); got != 43 {
				return fmt.Errorf("got %d", got)
			}
		} else {
			r := NewReader(p.Recv(0, 7))
			if r.Int64() != 42 {
				return fmt.Errorf("bad payload")
			}
			if v := r.Vec3(); v != geom.V(1, 2, 3) {
				return fmt.Errorf("bad vec %v", v)
			}
			if r.Remaining() != 0 {
				return fmt.Errorf("left-over bytes")
			}
			var b Buffer
			b.Int64(43)
			p.Send(0, 8, b.Bytes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.TotalStats()
	if st.Messages != 2 || st.Bytes != (8+24)+8 {
		t.Errorf("stats %+v", st)
	}
}

func TestRingExchangeManyRanks(t *testing.T) {
	const p = 16
	w := NewWorld(p)
	err := w.Run(func(pr *Proc) error {
		next := (pr.Rank() + 1) % p
		prev := (pr.Rank() + p - 1) % p
		var b Buffer
		b.Int64(int64(pr.Rank()))
		got := NewReader(pr.SendRecv(next, 1, b.Bytes(), prev, 1)).Int64()
		if got != int64(prev) {
			return fmt.Errorf("rank %d received %d, want %d", pr.Rank(), got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	var before, after atomic.Int64
	err := w.Run(func(pr *Proc) error {
		before.Add(1)
		pr.Barrier()
		if before.Load() != p {
			return fmt.Errorf("rank %d passed barrier before all entered", pr.Rank())
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != p {
		t.Fatal("not all ranks finished")
	}
}

func TestAllReduce(t *testing.T) {
	const p = 12
	w := NewWorld(p)
	err := w.Run(func(pr *Proc) error {
		sum := pr.AllReduceSum(float64(pr.Rank()))
		if sum != float64(p*(p-1)/2) {
			return fmt.Errorf("sum = %g", sum)
		}
		maxv := pr.AllReduceMax(float64(pr.Rank() % 5))
		if maxv != 4 {
			return fmt.Errorf("max = %g", maxv)
		}
		isum := pr.AllReduceSumInt64(int64(pr.Rank()) * 10)
		if isum != int64(10*p*(p-1)/2) {
			return fmt.Errorf("isum = %d", isum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastGather(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	err := w.Run(func(pr *Proc) error {
		var b Buffer
		b.Float64(math.Pi)
		got := NewReader(pr.Bcast(0, b.Bytes())).Float64()
		if got != math.Pi {
			return fmt.Errorf("bcast got %g", got)
		}
		var mine Buffer
		mine.Int32(int32(pr.Rank() * pr.Rank()))
		all := pr.GatherTo0(mine.Bytes())
		if pr.Rank() == 0 {
			for r := 0; r < p; r++ {
				if v := NewReader(all[r]).Int32(); v != int32(r*r) {
					return fmt.Errorf("gather[%d] = %d", r, v)
				}
			}
		} else if all != nil {
			return fmt.Errorf("non-root got gather data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagMismatchAborts: a receive whose tag does not match the next
// message on the link means the protocol is out of step (a desynced
// socket stream, in the distributed case) and must abort the world
// with a typed *ProtocolError, not kill the process with a panic.
func TestTagMismatchAborts(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(pr *Proc) error {
		if pr.Rank() == 0 {
			pr.Send(1, 1, nil)
		} else {
			pr.Recv(0, 2) // wrong tag: aborts the world
			return fmt.Errorf("tag mismatch not caught")
		}
		return nil
	})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProtocolError", err)
	}
	if pe.Rank != 1 || pe.Peer != 0 || pe.WantTag != 2 || pe.GotTag != 1 {
		t.Errorf("ProtocolError %+v", pe)
	}
}

// TestAbortUnblocksBlockedSend: a sender stuck on a full link after
// its peer failed must unwind with ErrAborted instead of blocking
// forever — the sender-side half of the abort protocol (receivers
// have always selected on the abort channel).
func TestAbortUnblocksBlockedSend(t *testing.T) {
	for _, delay := range chanDelays {
		t.Run(fmt.Sprintf("delay=%v", delay), func(t *testing.T) {
			tr := NewChanTransport(2, delay)
			defer tr.Close()
			err := NewWorldTransport(2, tr).Run(func(pr *Proc) error {
				if pr.Rank() == 1 {
					return fmt.Errorf("boom") // never receives anything
				}
				// Far more than the link buffers hold (the in-flight
				// queue included): without the abort select this blocks
				// forever once the channels fill.
				for i := 0; i < 10*linkBuffer; i++ {
					pr.Send(1, 1, nil)
				}
				return nil
			})
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted in chain", err)
			}
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Errorf("original failure lost: %v", err)
			}
		})
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(pr *Proc) error {
		if pr.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestCartFactorization(t *testing.T) {
	cases := map[int]geom.IVec3{
		1:  geom.IV(1, 1, 1),
		8:  geom.IV(2, 2, 2),
		12: geom.IV(2, 2, 3),
		64: geom.IV(4, 4, 4),
		7:  geom.IV(1, 1, 7),
	}
	for p, want := range cases {
		c := NewCart(p)
		if c.Size() != p {
			t.Errorf("NewCart(%d) size %d", p, c.Size())
		}
		got := c.Dims
		// Accept permutations of the expected dims.
		a := [3]int{got.X, got.Y, got.Z}
		b := [3]int{want.X, want.Y, want.Z}
		sort3 := func(v *[3]int) {
			if v[0] > v[1] {
				v[0], v[1] = v[1], v[0]
			}
			if v[1] > v[2] {
				v[1], v[2] = v[2], v[1]
			}
			if v[0] > v[1] {
				v[0], v[1] = v[1], v[0]
			}
		}
		sort3(&a)
		sort3(&b)
		if a != b {
			t.Errorf("NewCart(%d) dims %v, want %v", p, got, want)
		}
	}
}

func TestCartRankCoordRoundTrip(t *testing.T) {
	c := NewCart(24)
	for r := 0; r < 24; r++ {
		if c.Rank(c.Coord(r)) != r {
			t.Fatalf("round trip failed at rank %d", r)
		}
	}
}

func TestCartNeighbors(t *testing.T) {
	c, err := NewCartDims(geom.IV(3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	center := c.Rank(geom.IV(1, 1, 1))
	if got := c.AxisNeighbor(center, 0, 1); got != c.Rank(geom.IV(2, 1, 1)) {
		t.Errorf("x+ neighbor %d", got)
	}
	// Periodic wrap.
	edge := c.Rank(geom.IV(2, 0, 0))
	if got := c.AxisNeighbor(edge, 0, 1); got != c.Rank(geom.IV(0, 0, 0)) {
		t.Errorf("wrapped neighbor %d", got)
	}
	if got := c.Neighbor(center, geom.IV(-2, 0, 0)); got != c.Rank(geom.IV(2, 1, 1)) {
		t.Errorf("negative wrap neighbor %d", got)
	}
}

func TestCartDimsValidation(t *testing.T) {
	if _, err := NewCartDims(geom.IV(0, 1, 1)); err == nil {
		t.Error("invalid dims accepted")
	}
}

func TestPerRankStats(t *testing.T) {
	w := NewWorld(2)
	_ = w.Run(func(pr *Proc) error {
		if pr.Rank() == 0 {
			pr.Send(1, 1, make([]byte, 100))
		} else {
			pr.Recv(0, 1)
		}
		return nil
	})
	if s := w.RankStats(0); s.Messages != 1 || s.Bytes != 100 {
		t.Errorf("rank 0 stats %+v", s)
	}
	if s := w.RankStats(1); s.Messages != 0 {
		t.Errorf("rank 1 stats %+v", s)
	}
}
