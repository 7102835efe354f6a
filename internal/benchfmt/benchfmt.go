// Package benchfmt is the shared schema and parser for the repo's
// benchmark trajectory: the JSON shape of the committed BENCH_PR*.json
// files, the `go test -bench` text parser that produces it (cmd/
// benchjson), and the regression comparison that gates CI (cmd/
// benchdiff).
package benchfmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark as printed, sub-benchmarks and any
	// -cpu suffix included (e.g. "BenchmarkServeParallelStep/workers=1-8").
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the harness quantities;
	// BytesPerOp/AllocsPerOp are present only under -benchmem.
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every custom b.ReportMetric unit on the line.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file-level envelope.
type Report struct {
	// Context lines captured from the bench output header.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`

	Benchmarks []Benchmark `json:"benchmarks"`
}

// SameHost reports whether two reports carry identical host context
// (goos, goarch, cpu). Nanosecond comparisons across different hosts
// are noise; allocation counts are not.
func (r *Report) SameHost(o *Report) bool {
	return r.Goos == o.Goos && r.Goarch == o.Goarch && r.CPU == o.CPU
}

// ParseText scans `go test -bench` text output for header context and
// benchmark lines. Non-benchmark lines (pkg/PASS/ok and test chatter)
// are ignored, so whole `go test` output is fine.
func ParseText(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// Read sniffs the input format — a BENCH_*.json report or raw `go test
// -bench` text — and parses accordingly.
func Read(r io.Reader) (*Report, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(buf, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		rep := &Report{}
		if err := json.Unmarshal(buf, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	return ParseText(bytes.NewReader(buf))
}

// ReadFile reads one report from a JSON or bench-text file.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// parseBenchLine parses one "BenchmarkName N value unit ..." line.
// ok=false for Benchmark-prefixed lines that are not results (e.g. a
// bare name echoed by -v).
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false, nil
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: fields[0], Iterations: n}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad value %q on line %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
			seenNs = true
		case "B/op":
			v := val
			b.BytesPerOp = &v
		case "allocs/op":
			v := val
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	if !seenNs {
		return Benchmark{}, false, nil
	}
	return b, true, nil
}

// best folds duplicate entries of one benchmark (e.g. -count runs) into
// the minimum of each quantity: the least-noisy observation. name is
// the first entry's name as printed.
type best struct {
	name   string
	ns     float64
	allocs *float64
}

// benchKey is a benchmark's name without the "-N" suffix `go test
// -bench` appends when GOMAXPROCS N > 1, so reports recorded at
// different CPU counts match. A name whose last element itself ends in
// "-<digits>" loses that too; both sides lose it alike only when both
// ran at one CPU or both above it.
func benchKey(name string) string {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i < len(name) && i > 0 && name[i-1] == '-' {
		return name[:i-1]
	}
	return name
}

func index(rep *Report) map[string]best {
	m := make(map[string]best, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		key := benchKey(b.Name)
		cur, ok := m[key]
		if !ok {
			m[key] = best{name: b.Name, ns: b.NsPerOp, allocs: b.AllocsPerOp}
			continue
		}
		if b.NsPerOp < cur.ns {
			cur.ns = b.NsPerOp
		}
		if b.AllocsPerOp != nil && (cur.allocs == nil || *b.AllocsPerOp < *cur.allocs) {
			cur.allocs = b.AllocsPerOp
		}
		m[key] = cur
	}
	return m
}

// Regression is one gate violation found by Diff.
type Regression struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Base   float64
	Head   float64
	// Ratio is Head/Base (0 when Base is 0).
	Ratio float64
	// Advisory regressions are reported but do not fail the gate: an
	// ns/op comparison across different hosts is noise, not signal.
	Advisory bool
}

func (r Regression) String() string {
	tag := "FAIL"
	if r.Advisory {
		tag = "warn"
	}
	return fmt.Sprintf("%s  %-55s %-10s %12.0f -> %12.0f  (%+.1f%%)",
		tag, r.Name, r.Metric, r.Base, r.Head, 100*(r.Ratio-1))
}

// allocsJitter is the fractional tolerance of the allocs/op gate.
// Allocation counts are machine-independent but not perfectly
// schedule-independent: benchmarks that fan work across goroutines
// (the parallel engine, step workers) grow per-worker scratch in an
// order that varies run to run, moving totals by a few parts per
// million. 0.1% forgives that jitter while keeping the gate exact
// where it matters — on a hot-path benchmark with a few hundred
// allocs/op, a single extra allocation still fails.
const allocsJitter = 0.001

// Diff gates head against base over the benchmarks both reports pin
// (intersection by name less any GOMAXPROCS suffix, duplicates folded
// to their minimum; regressions carry the head's name): ns/op may
// not regress by more than threshold (fractional, e.g. 0.15), and
// allocs/op may not regress beyond the allocsJitter guard — allocation
// counts are exact and machine-independent, so there is no noise
// budget beyond scheduling jitter to spend. When the reports come from
// different hosts the ns/op violations are downgraded to advisory;
// allocs/op violations never are. Results are sorted by benchmark
// name. matched reports how many benchmarks were compared.
func Diff(base, head *Report, threshold float64) (regs []Regression, matched int) {
	bi, hi := index(base), index(head)
	sameHost := base.SameHost(head)
	keys := make([]string, 0, len(hi))
	for key := range hi {
		if _, ok := bi[key]; ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	matched = len(keys)
	for _, key := range keys {
		b, h := bi[key], hi[key]
		if b.ns > 0 && h.ns > b.ns*(1+threshold) {
			regs = append(regs, Regression{
				Name: h.name, Metric: "ns/op", Base: b.ns, Head: h.ns,
				Ratio: h.ns / b.ns, Advisory: !sameHost,
			})
		}
		if b.allocs != nil && h.allocs != nil && *h.allocs > *b.allocs*(1+allocsJitter) {
			ratio := 0.0
			if *b.allocs > 0 {
				ratio = *h.allocs / *b.allocs
			}
			regs = append(regs, Regression{
				Name: h.name, Metric: "allocs/op", Base: *b.allocs, Head: *h.allocs,
				Ratio: ratio,
			})
		}
	}
	return regs, matched
}
