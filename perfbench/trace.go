package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names: one per layer boundary the traced run wraps.
const (
	spanGenerate      = "video.generate"
	spanStep          = "core.step"
	spanPredict       = "tracker.predict"
	spanDetectFull    = "detector.full"
	spanMask          = "geom.mask"
	spanDetectRegions = "detector.regions"
	spanAttrib        = "geom.attrib"
	spanObserve       = "tracker.observe"
	spanPrice         = "gpumodel.price"
	spanEvaluate      = "metrics.evaluate"
	spanServeNew      = "serve.new"
	spanServeSubmit   = "serve.submit"
	spanServeDrain    = "serve.drain"
	spanClusterNew    = "cluster.new"
	spanClusterSubmit = "cluster.submit"
	spanClusterDrain  = "cluster.drain"
)

const (
	noFrame  = -1 // frame id of run-level spans
	noParent = -1
)

// span is one timed call into a layer. Spans of one frame (or of one
// submission) share its id; parent indexes the enclosing span.
type span struct {
	name       string
	frame      int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps every span in memory; write puts them out once the run
// is over, so no I/O happens while spans are open.
//
// Spans are timed on the CPU clock of the calling thread, which the
// traced run locks to its goroutine: time the thread spends
// descheduled on a shared host does not count, so sums over a run
// repeat far better than wall time. Each clock read is a system call
// (about 0.4 µs), so spans shorter than a microsecond read high.
type tracer struct {
	epoch time.Duration
	spans []span
}

func newTracer() *tracer {
	// Room for a traced run's spans, so appending rarely reallocates.
	return &tracer{epoch: threadCPU(), spans: make([]span, 0, 1<<17)}
}

// now is the thread CPU time since the tracer started.
func (t *tracer) now() time.Duration { return threadCPU() - t.epoch }

// begin opens a span and returns its index for end and for children.
// A nil tracer records nothing, so untraced runs share the traced code.
func (t *tracer) begin(name string, frame, parent int) int {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, span{name: name, frame: frame, parent: parent, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = t.now()
	}
}

func (s span) dur() time.Duration { return s.end - s.start }

// perFrame sums the durations of the named spans per frame id, in
// microseconds, one sample per frame that has any.
func (t *tracer) perFrame(name string) []float64 {
	byFrame := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.name != name {
			continue
		}
		if _, ok := byFrame[s.frame]; !ok {
			order = append(order, s.frame)
		}
		byFrame[s.frame] += float64(s.dur()) / float64(time.Microsecond)
	}
	out := make([]float64, len(order))
	for i, f := range order {
		out[i] = byFrame[f]
	}
	return out
}

// selfTimes is, for every span of the named kind, its duration minus
// the time its direct children cover, in microseconds. Children run
// sequentially inside their parent, so the difference is never
// negative.
func (t *tracer) selfTimes(name string) []float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent != noParent {
			child[s.parent] += s.dur()
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur()-child[i])/float64(time.Microsecond))
		}
	}
	return out
}

// total is the summed duration of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
		}
	}
	return d
}

// write puts the spans out as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"frame":%d,"name":%q,"cpu_start_ns":%d,"cpu_end_ns":%d}`+"\n",
			i, s.parent, s.frame, s.name, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
