package sched

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEDF is EDF as it was before the typed heap: the same order driven
// through container/heap, which boxes every job into an interface. It
// is kept as the reference the typed heap must match; do not optimise
// it.
type refEDF struct {
	cfg Config
	h   refEDFHeap
}

func (e *refEDF) Admit(j Job) (Job, bool) {
	heap.Push(&e.h, j)
	if !e.cfg.over(len(e.h)) {
		return Job{}, false
	}
	return heap.Pop(&e.h).(Job), true
}

func (e *refEDF) Next() (Job, bool) {
	if len(e.h) == 0 {
		return Job{}, false
	}
	return heap.Pop(&e.h).(Job), true
}

type refEDFHeap []Job

func (h refEDFHeap) Len() int { return len(h) }
func (h refEDFHeap) Less(i, j int) bool {
	if h[i].Deadline != h[j].Deadline {
		return h[i].Deadline < h[j].Deadline
	}
	if h[i].Arrive != h[j].Arrive {
		return h[i].Arrive < h[j].Arrive
	}
	if h[i].Stream != h[j].Stream {
		return h[i].Stream < h[j].Stream
	}
	return h[i].Frame < h[j].Frame
}
func (h refEDFHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEDFHeap) Push(x any)   { *h = append(*h, x.(Job)) }
func (h *refEDFHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	*h = old[:n-1]
	return j
}

// TestEDFMatchesHeap interleaves random Admit and Next calls, with
// heavy ties on every key (Deadline, Arrive, Stream, Frame) and caps
// small enough to overflow, and requires the typed heap to return
// exactly the victims and jobs container/heap returns. Class and Epoch
// are not keys, so jobs equal on every key still show which came out.
func TestEDFMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Cap: rng.Intn(8) - 1} // -1 is unbounded
		got, want := newEDF(cfg), &refEDF{cfg: cfg}
		for op := 0; op < 500; op++ {
			if rng.Intn(3) > 0 {
				j := Job{
					Deadline: float64(rng.Intn(3)), Arrive: float64(rng.Intn(3)),
					Stream: rng.Intn(3), Frame: rng.Intn(3),
					Class: op, Epoch: rng.Intn(2),
				}
				gv, gd := got.Admit(j)
				wv, wd := want.Admit(j)
				if gv != wv || gd != wd {
					t.Fatalf("seed %d op %d: Admit victim (%+v, %v), container/heap (%+v, %v)", seed, op, gv, gd, wv, wd)
				}
				continue
			}
			gj, gok := got.Next()
			wj, wok := want.Next()
			if gj != wj || gok != wok {
				t.Fatalf("seed %d op %d: Next (%+v, %v), container/heap (%+v, %v)", seed, op, gj, gok, wj, wok)
			}
		}
		for {
			gj, gok := got.Next()
			wj, wok := want.Next()
			if gj != wj || gok != wok {
				t.Fatalf("seed %d drain: Next (%+v, %v), container/heap (%+v, %v)", seed, gj, gok, wj, wok)
			}
			if !wok {
				break
			}
		}
	}
}

// BenchmarkSched is each policy's Admit+Next at a steady backlog of 32
// jobs over 8 streams: each op admits one job and serves one.
func BenchmarkSched(b *testing.B) {
	for _, kind := range []Kind{FIFO, EDF, Fair, Priority} {
		b.Run(string(kind), func(b *testing.B) {
			s, err := New(kind, Config{Cap: 64, Streams: 8})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			jobs := make([]Job, 1024)
			for i := range jobs {
				at := float64(i) * 0.01
				jobs[i] = Job{Stream: i % 8, Frame: i / 8, Arrive: at, Deadline: at + rng.Float64(), Class: rng.Intn(3)}
			}
			// Grow the queue to 33 and back, so the timed ops (32
			// waiting, one more admitted) run within its capacity.
			for i := 0; i < 33; i++ {
				s.Admit(jobs[i])
			}
			s.Next()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := jobs[(i+33)%len(jobs)]
				j.Frame += i / len(jobs) * len(jobs)
				s.Admit(j)
				if _, ok := s.Next(); !ok {
					b.Fatalf("%s: nothing to serve", kind)
				}
			}
		})
	}
}
