// Command perfbench is the repository's benchmark. It makes a
// workload's inputs from a seed: several independent worlds, so that
// one seed's luck does not set the figures. It runs them untraced in
// rounds for --seconds to measure the end-to-end metrics, then runs
// the first world once more with spans around the calls into each
// layer for the per-layer metrics. It checks the outputs: the traced
// replay must match the real system frame for frame, the books must
// conserve frames, and the result digest must repeat exactly across
// every run of a world, traced or not, at one step worker as at nproc.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload offline-kitti --seed 1 --seconds 30 --trace 0
//
// It prints every metric with its unit and sample count, then, as its
// last line, one JSON object with the keys correct, attempted, failed
// and metrics: the end-to-end metrics with --trace 0, the per-layer
// ones with --trace 1. It exits 1 if any operation or check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "wall seconds of untraced runs to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	spansDir := fs.String("spans-dir", "", "directory to write the traced run's spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --trace 0 or 1 and --seconds > 0\n", workloadNames())
		return 2
	}

	l := &ledger{log: stderr}
	e2e, unbounded, ref, err := untraced(w, *seed, time.Duration(*seconds*float64(time.Second)), l)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	layers, tr, err := traced(w, worldSeed(*seed, w, 0), ref, l)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", w.name, err)
		return 1
	}
	for k, v := range unbounded {
		layers[k] = v
	}
	if *trace == 1 && *spansDir != "" {
		path := filepath.Join(*spansDir, w.name+".spans.jsonl")
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g step-workers=%d\n", w.name, *seed, *seconds, runtime.GOMAXPROCS(0))
	printMetrics(stdout, "end-to-end (untraced runs, pooled over worlds)", endToEnd, e2e, l)
	printMetrics(stdout, "per-layer (traced run of world 0)", perLayer, layers, l)
	printLedger(stdout, l)

	report := e2e
	defs := endToEnd
	if *trace == 1 {
		report, defs = layers, perLayer
	}
	attempted, failed := l.totals()
	line, err := resultLine(defs, report, attempted, failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// untraced measures the workload for the budget and returns the
// end-to-end metrics, the figures of the untraced runs that are
// reported with the per-layer ones (the modelled results of world 0,
// raw CPU and wall-clock throughput, and the reference kernel's time),
// and world 0's digest.
//
// Each world is summarised by the median of its runs, which filters
// host noise; the worlds are then pooled, which averages out how much
// work one seed's inputs happen to hold: throughput is total frames
// over the summed median times, set-up and live heap are means.
func untraced(w workload, seed int64, budget time.Duration, l *ledger) (e2e, unbounded map[string]value, ref string, err error) {
	workers := runtime.GOMAXPROCS(0)
	setup := func(world int) (instance, error) { return w.setup(worldSeed(seed, w, world), workers, l) }
	runs, first, ref, err := measureFor(budget, w.worlds, setup, l)
	if err != nil {
		return nil, nil, "", err
	}
	unbounded = w.books(first.result, l)

	var setupS, refCPU, cpu, wall, mallocs, heap float64
	var kernel []float64
	frames, n := 0, 0
	for _, ss := range runs {
		col := func(f func(s sample) float64) float64 {
			xs := make([]float64, len(ss))
			for i, s := range ss {
				xs[i] = f(s)
			}
			return midpoint(xs)
		}
		setupS += col(func(s sample) float64 { return refScale(s.setup, s.ref) })
		refCPU += col(func(s sample) float64 { return refScale(s.cpu, s.ref) })
		cpu += col(func(s sample) float64 { return s.cpu.Seconds() })
		wall += col(func(s sample) float64 { return s.wall.Seconds() })
		mallocs += col(func(s sample) float64 { return float64(s.mallocs) })
		heap += col(func(s sample) float64 { return float64(s.liveHeap) / (1 << 20) })
		for _, s := range ss {
			kernel = append(kernel, float64(s.ref)/float64(time.Millisecond))
		}
		frames += ss[0].frames
		n += len(ss)
	}
	k := float64(len(runs))
	note := fmt.Sprintf("%d worlds", len(runs))
	e2e = map[string]value{
		"setup_s":              {v: setupS / k, n: n, note: note},
		"frames_per_ref_cpu_s": {v: float64(frames) / refCPU, n: n, note: note},
		"allocs_per_frame":     {v: mallocs / float64(frames), n: n, note: note},
		"live_heap_mb":         {v: heap / k, n: n, note: note},
	}
	unbounded["frames_per_cpu_s"] = value{v: float64(frames) / cpu, n: n, note: note}
	unbounded["frames_per_wall_s"] = value{v: float64(frames) / wall, n: n, note: note}
	unbounded["host.ref_kernel_ms"] = value{v: midpoint(kernel), n: n, note: "median"}
	return e2e, unbounded, ref, nil
}

// traced runs the workload once with spans, at one step worker, and
// checks that its result is the untraced one bit for bit.
func traced(w workload, seed int64, ref string, l *ledger) (map[string]value, *tracer, error) {
	runtime.LockOSThread() // the tracer reads this thread's CPU clock
	defer runtime.UnlockOSThread()
	tr := newTracer()
	res, layers, err := w.traced(seed, tr, l)
	if err != nil {
		return nil, nil, err
	}
	w.books(res, l)
	d, err := digest(res)
	if err != nil {
		return nil, nil, err
	}
	l.check(d == ref, "traced result digest (one step worker) %.12s differs from untraced %.12s", d, ref)
	return layers, tr, nil
}

func printMetrics(out io.Writer, title string, defs []metricDef, vals map[string]value, l *ledger) {
	fmt.Fprintf(out, "## %s\n", title)
	for _, d := range defs {
		v := vals[d.name]
		l.check(!math.IsNaN(v.v) && !math.IsInf(v.v, 0), "%s is %v", d.name, v.v)
		line := fmt.Sprintf("%-32s %14.6g %-16s n=%-6d %-9s", d.name, v.v, d.unit, v.n, v.note)
		if d.moves != "" {
			line += " -> " + d.moves
		}
		fmt.Fprintln(out, line)
	}
}

func printLedger(out io.Writer, l *ledger) {
	fmt.Fprintln(out, "## operations")
	for _, p := range l.phases {
		fmt.Fprintf(out, "%-8s attempted=%-8d succeeded=%-8d failed=%d\n", p.name, p.attempted, p.attempted-p.failed, p.failed)
	}
}

// resultLine is the final JSON object; a metric the run did not reach
// reads 0, and a non-finite one (already a failed check) also 0, since
// JSON has no NaN.
func resultLine(defs []metricDef, vals map[string]value, attempted, failed int) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v := vals[d.name].v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	return string(b), err
}
