package serve

import "sort"

// LatencySummary condenses a latency sample set. All values are
// seconds; percentiles use the nearest-rank method (P50 of n samples is
// the ceil(0.50*n)-th smallest), so every reported value is an actual
// observed latency.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

// percentile returns the nearest-rank q-th percentile (q in (0,1]) of
// an ascending-sorted sample set; 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := ceilRank(q, n) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// ceilRank computes ceil(q*n) in exact integer arithmetic for the
// quantiles used here (avoids float64 ceil landing one rank high when
// q*n is representable exactly, e.g. 0.5*4).
func ceilRank(q float64, n int) int {
	r := int(q * float64(n))
	if float64(r) < q*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Stats is a live snapshot of a Server, as returned by Server.Stats.
// Totals are cumulative since New; Throughput and DropRate cover the
// elapsed makespan (Now), so after a full Drain they equal the final
// Result's fleet row; Window summarizes only the most recent
// Config.StatsWindow served frames.
type Stats struct {
	// Now is the engine's virtual clock: the time of the last event
	// played so far (the makespan so far).
	Now float64 `json:"now_s"`
	// Cumulative frame counters, summed over every stream.
	// DroppedPoison and Reconnects count fault-tolerance incidents
	// (PoisonDrop swallows, accepted camera reconnects); both stay 0
	// under the strict default policies.
	Arrived       int `json:"arrived"`
	Served        int `json:"served"`
	DroppedQueue  int `json:"dropped_queue"`
	DroppedStale  int `json:"dropped_stale"`
	DroppedPoison int `json:"dropped_poison,omitempty"`
	Reconnects    int `json:"reconnects,omitempty"`
	// FailedOver counts frames seized by Server.FailAt — queued or
	// in-flight when the shard's hardware died; 0 unless the server
	// belongs to a cluster with an active FaultPlan.
	FailedOver int `json:"failed_over,omitempty"`
	Degraded   int `json:"degraded"`
	// Instantaneous fleet state: frames waiting in the scheduler,
	// executors currently serving a launch, and the current executor
	// count (equal to Config.Executors until Server.ResizeAt changes
	// it). PerStreamQueue breaks QueueDepth down by stream — the
	// backlog signal the cluster router's migration policy keys on.
	QueueDepth     int   `json:"queue_depth"`
	BusyExecutors  int   `json:"busy_executors"`
	Executors      int   `json:"executors"`
	PerStreamQueue []int `json:"per_stream_queue,omitempty"`
	// Throughput is Served/Now (frames per second over the makespan so
	// far); DropRate is (DroppedQueue+DroppedStale)/Arrived.
	Throughput float64 `json:"throughput_fps"`
	DropRate   float64 `json:"drop_rate"`
	// Window summarizes end-to-end latency over the sliding window of
	// the most recent Config.StatsWindow served frames.
	Window LatencySummary `json:"window_latency"`
	// PerStreamWindow breaks the sliding-window view down by stream —
	// the per-stream signal set the adaptive control plane
	// (serve/control) observes at its ticks. Every window is a bounded
	// ring capped at Config.StatsWindow samples, so the memory cost is
	// O(Streams * StatsWindow) regardless of run length.
	PerStreamWindow []StreamWindow `json:"per_stream_window,omitempty"`
}

// StreamWindow is one stream's sliding-window snapshot within Stats.
type StreamWindow struct {
	// Queue is the stream's current backlog in the shared scheduler.
	Queue int `json:"queue"`
	// ArrivalRate is the stream's offered rate in frames/s over its
	// most recent StatsWindow arrivals (0 until two have been seen).
	ArrivalRate float64 `json:"arrival_rate_fps"`
	// Window summarizes end-to-end latency over the stream's most
	// recent StatsWindow served frames.
	Window LatencySummary `json:"window_latency"`
	// Mode is the stream's current operating mode, empty while the
	// stream runs the legacy automatic policy (see serve/control).
	Mode string `json:"mode,omitempty"`
}

// latWindow is a fixed-capacity ring over the most recent served-frame
// latencies, feeding the sliding-window percentiles of Stats. The
// window size is stored explicitly because make() may round a slice's
// capacity up to an allocation size class. sorted is the scratch the
// window is sorted into when read, so reading it allocates nothing.
type latWindow struct {
	buf    []float64
	sorted []float64
	max    int // window size
	n      int // total samples ever added
}

func newLatWindow(capacity int) *latWindow {
	if capacity < 1 {
		capacity = 1
	}
	return &latWindow{buf: make([]float64, 0, capacity), max: capacity}
}

func (w *latWindow) add(v float64) {
	if len(w.buf) < w.max {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.n%w.max] = v
	}
	w.n++
}

// sortedCopy returns the window's samples in ascending order, in the
// reused scratch; it is valid until the next read of the window.
//
//detlint:allocfree
func (w *latWindow) sortedCopy() []float64 {
	s := append(w.sorted[:0], w.buf...)
	sort.Float64s(s)
	w.sorted = s
	return s
}

func (w *latWindow) summary() LatencySummary { return summarizeSorted(w.sortedCopy()) }

// quantiles returns the window's p50 and p99 without building a full
// summary — the two signals a control tick reads per stream.
//
//detlint:allocfree
func (w *latWindow) quantiles() (p50, p99 float64) {
	if len(w.buf) == 0 {
		return 0, 0
	}
	sorted := w.sortedCopy()
	return percentile(sorted, 0.50), percentile(sorted, 0.99)
}

// stampWindow is a fixed-capacity ring over the most recent arrival
// instants of one stream, feeding the windowed arrival-rate signal.
type stampWindow struct {
	buf []float64
	max int // window size
	n   int // total stamps ever added
}

func newStampWindow(capacity int) *stampWindow {
	if capacity < 2 {
		capacity = 2
	}
	return &stampWindow{buf: make([]float64, 0, capacity), max: capacity}
}

func (w *stampWindow) add(t float64) {
	if len(w.buf) < w.max {
		w.buf = append(w.buf, t)
	} else {
		w.buf[w.n%w.max] = t
	}
	w.n++
}

// rate is the windowed arrival rate: (count-1) arrivals over the span
// from the oldest to the newest stamp in the ring, in frames/s. 0
// until two arrivals have been seen or while the span is zero.
func (w *stampWindow) rate() float64 {
	k := len(w.buf)
	if k < 2 {
		return 0
	}
	newest := w.buf[(w.n-1)%w.max]
	oldest := w.buf[0]
	if k == w.max {
		oldest = w.buf[w.n%w.max]
	}
	span := newest - oldest
	if span <= 0 {
		return 0
	}
	return float64(k-1) / span
}

// Summarize computes the latency summary of a sample set. The input is
// not modified.
func Summarize(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted is Summarize of an ascending-sorted sample set.
func summarizeSorted(sorted []float64) LatencySummary {
	s := LatencySummary{Count: len(sorted)}
	if len(sorted) == 0 {
		return s
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	s.P50 = percentile(sorted, 0.50)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)
	s.Max = sorted[len(sorted)-1]
	return s
}
