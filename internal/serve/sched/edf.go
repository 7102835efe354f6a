package sched

import "slices"

// edf is earliest-deadline-first: Next pops the waiting job with the
// smallest deadline (arrive + MaxStaleness). Overflow also evicts the
// earliest deadline — under overload the head-of-line job is the one
// nearest expiry and the least likely to be served in time, so it is
// the cheapest to sacrifice; Config.DropNewest is ignored by design
// (the victim is deadline-chosen, not direction-chosen).
//
// With a uniform relative deadline EDF's service order equals FIFO's
// (same offset preserves arrival order), so it coincides with
// fifo/drop-oldest; it differs from fifo under tail drop — where FIFO
// keeps doomed head-of-line frames that later expire as stale drops,
// EDF evicts them as queue drops and serves fresher frames instead.
type edf struct {
	cfg Config
	h   edfHeap
}

func newEDF(cfg Config) *edf { return &edf{cfg: cfg} }

func (e *edf) Name() Kind { return EDF }
func (e *edf) Len() int   { return len(e.h) }

// Admit pushes j and, over capacity, pops the earliest deadline.
//
//detlint:allocfree
func (e *edf) Admit(j Job) (Job, bool) {
	e.h.push(j)
	if !e.cfg.over(len(e.h)) {
		return Job{}, false
	}
	return e.h.pop(), true
}

// Next pops the earliest deadline.
//
//detlint:allocfree
func (e *edf) Next() (Job, bool) {
	if len(e.h) == 0 {
		return Job{}, false
	}
	return e.h.pop(), true
}

// edfHeap is a binary min-heap ordered by (deadline, arrive, stream,
// frame) — a total order over jobs, so heap behavior is deterministic.
// push and pop are container/heap's Push and Pop with the sift loops
// typed to Job: the same steps and comparisons, so the same pop order,
// without boxing every job into an interface.
type edfHeap []Job

func (h edfHeap) less(i, j int) bool {
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

// push adds j. The backing array only grows while the heap is longer
// than it has ever been.
func (h *edfHeap) push(j Job) {
	s := *h
	if cap(s) == len(s) {
		s = slices.Grow(s, 1)
	}
	s = s[:len(s)+1]
	s[len(s)-1] = j
	s.up(len(s) - 1)
	*h = s
}

// pop removes and returns the least job; the heap must not be empty.
func (h *edfHeap) pop() Job {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	j := s[n]
	*h = s[:n]
	return j
}

func (h edfHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h edfHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
