package serve

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refAgenda is the agenda as it was before the typed heap: the same
// order driven through container/heap, which boxes every event into an
// interface. It is kept as the reference the typed heap must match pop
// for pop; do not optimise it.
type refAgenda []event

func (a refAgenda) Len() int { return len(a) }
func (a refAgenda) Less(i, j int) bool {
	if a[i].t != a[j].t {
		return a[i].t < a[j].t
	}
	if a[i].kind != a[j].kind {
		return a[i].kind < a[j].kind
	}
	if a[i].stream != a[j].stream {
		return a[i].stream < a[j].stream
	}
	if a[i].frame != a[j].frame {
		return a[i].frame < a[j].frame
	}
	if a[i].epoch != a[j].epoch {
		return a[i].epoch < a[j].epoch
	}
	return a[i].execs < a[j].execs
}
func (a refAgenda) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *refAgenda) Push(x any)   { *a = append(*a, x.(event)) }
func (a *refAgenda) Pop() any     { old := *a; n := len(old); e := old[n-1]; *a = old[:n-1]; return e }

// tiedEvent decodes one event from b with few values per key, so most
// pairs tie on t and many on every key up to execs; arrive is not a
// key, so two events equal on all keys still differ in it and the pop
// comparison sees which of them came out.
func tiedEvent(b uint32) event {
	return event{
		t:      float64(b%3) * 0.5,
		kind:   int(b/3) % 4,
		stream: int(b/12) % 3,
		frame:  int(b/36) % 3,
		epoch:  int(b/108) % 2,
		execs:  int(b/216) % 2,
		arrive: float64(b / 432),
	}
}

// agendaMatchesHeap replays ops through both heaps: an op with its low
// bit clear adds tiedEvent(op>>1), one with it set pops (when
// non-empty). Every pop, and the final drain, must agree.
func agendaMatchesHeap(t *testing.T, ops []uint32) {
	t.Helper()
	var got agenda
	var want refAgenda
	check := func(step int) {
		g, w := got.next(), heap.Pop(&want).(event)
		if g != w {
			t.Fatalf("pop at op %d: typed heap gave %+v, container/heap %+v", step, g, w)
		}
	}
	for i, op := range ops {
		if op&1 == 0 {
			e := tiedEvent(op >> 1)
			got.add(e)
			heap.Push(&want, e)
			continue
		}
		if len(want) > 0 {
			check(i)
		}
	}
	for len(want) > 0 {
		check(len(ops))
	}
	if len(got) != 0 {
		t.Fatalf("typed heap holds %d events after the reference drained", len(got))
	}
}

// TestAgendaMatchesHeap interleaves random adds and pops, with heavy
// ties on every key, and requires the typed heap to pop exactly what
// container/heap pops.
func TestAgendaMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]uint32, 400)
		bias := rng.Intn(4) // 0..3: how strongly adds outnumber pops
		for i := range ops {
			ops[i] = rng.Uint32()
			if rng.Intn(4) < bias {
				ops[i] &^= 1 // add
			}
		}
		agendaMatchesHeap(t, ops)
	}
}

// FuzzAgendaMatchesHeap is TestAgendaMatchesHeap on arbitrary op
// sequences: every two bytes are one op.
func FuzzAgendaMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 4, 0, 1, 0, 1, 0})
	f.Add([]byte{6, 1, 6, 1, 6, 1, 9, 0, 12, 3, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]uint32, len(data)/2)
		for i := range ops {
			ops[i] = uint32(data[2*i]) | uint32(data[2*i+1])<<8
		}
		agendaMatchesHeap(t, ops)
	})
}

// BenchmarkAgenda is the agenda's add/next mix at a steady depth of 64
// events: each op pushes one event and pops the least.
func BenchmarkAgenda(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	evs := make([]event, 1024)
	for i := range evs {
		evs[i] = event{t: rng.Float64(), kind: rng.Intn(4), stream: rng.Intn(8), frame: rng.Intn(1000)}
	}
	var a agenda
	for i := 0; i < 64; i++ {
		a.add(evs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := evs[i%len(evs)]
		e.t += float64(i)
		a.add(e)
		a.next()
	}
}
