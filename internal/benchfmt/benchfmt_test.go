package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/serve
cpu: AMD EPYC 7B13
BenchmarkServeOverload  	       3	 4504965 ns/op	       76.11 drop_pct	 1812085 B/op	   12121 allocs/op
BenchmarkServeSteady/fifo-8     	     100	   52104 ns/op	    9200 B/op	      80 allocs/op
BenchmarkNoMem          	     500	    1000 ns/op
garbage line
PASS
ok  	repro/internal/serve	1.2s
`

func parseSample(t *testing.T, text string) *Report {
	t.Helper()
	rep, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParseText pins the text parser: header context, harness
// quantities, custom metrics, and tolerance for non-benchmark chatter.
func TestParseText(t *testing.T) {
	rep := parseSample(t, sample)
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("host context wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkServeOverload" || b.Iterations != 3 || b.NsPerOp != 4504965 {
		t.Errorf("first benchmark wrong: %+v", b)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 12121 {
		t.Errorf("allocs/op not parsed: %+v", b)
	}
	if b.Metrics["drop_pct"] != 76.11 {
		t.Errorf("custom metric not parsed: %+v", b.Metrics)
	}
	if rep.Benchmarks[2].AllocsPerOp != nil {
		t.Errorf("no-benchmem line grew an allocs pointer: %+v", rep.Benchmarks[2])
	}
}

// TestReadSniffsJSON pins the format sniffing: the same report survives
// a text -> JSON -> Read round trip.
func TestReadSniffsJSON(t *testing.T) {
	rep, err := Read(strings.NewReader(`{"goos":"linux","benchmarks":[{"name":"BenchmarkX","iterations":1,"ns_per_op":42}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].NsPerOp != 42 {
		t.Errorf("JSON read wrong: %+v", rep)
	}
	rep, err = Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Errorf("text read found %d benchmarks, want 3", len(rep.Benchmarks))
	}
}

// TestDiffGates pins the regression gate: a 2x ns/op slowdown and any
// allocs/op growth fail, small ns drift and improvements pass, and
// benchmarks missing from either side are ignored.
func TestDiffGates(t *testing.T) {
	base := parseSample(t, sample)
	head := parseSample(t, strings.NewReplacer(
		"4504965 ns/op", "9009930 ns/op", // 2x slowdown
		"80 allocs/op", "81 allocs/op", // one extra allocation
		"1000 ns/op", "1100 ns/op", // +10%: inside the 15% budget
	).Replace(sample))
	regs, matched := Diff(base, head, 0.15)
	if matched != 3 {
		t.Errorf("matched %d benchmarks, want 3", matched)
	}
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkServeOverload" || regs[0].Metric != "ns/op" || regs[0].Advisory {
		t.Errorf("2x slowdown not gated: %+v", regs[0])
	}
	if regs[1].Name != "BenchmarkServeSteady/fifo-8" || regs[1].Metric != "allocs/op" {
		t.Errorf("alloc growth not gated: %+v", regs[1])
	}

	// Improvements and unchanged benchmarks are clean.
	if regs, _ := Diff(base, base, 0.15); len(regs) != 0 {
		t.Errorf("self-diff found regressions: %+v", regs)
	}
}

// TestDiffHostMismatchDowngrades pins the cross-machine rule: ns/op
// violations become advisory, allocs/op violations never do.
func TestDiffHostMismatchDowngrades(t *testing.T) {
	base := parseSample(t, sample)
	head := parseSample(t, strings.NewReplacer(
		"cpu: AMD EPYC 7B13", "cpu: Apple M2",
		"4504965 ns/op", "9009930 ns/op",
		"80 allocs/op", "81 allocs/op",
	).Replace(sample))
	regs, _ := Diff(base, head, 0.15)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	if !regs[0].Advisory {
		t.Errorf("cross-host ns/op regression not advisory: %+v", regs[0])
	}
	if regs[1].Advisory {
		t.Errorf("allocs/op regression downgraded by host mismatch: %+v", regs[1])
	}
}

// TestDiffAllocsJitterGuard pins the allocs gate tolerance: a
// few-allocation wobble on a benchmark with hundreds of thousands of
// allocs/op (goroutine scheduling jitter in the fan-out benchmarks) is
// forgiven, while growth beyond 0.1% — and a single extra allocation on
// a small-count hot-path benchmark — still fails.
func TestDiffAllocsJitterGuard(t *testing.T) {
	base := parseSample(t, "BenchmarkBig 1 1000 ns/op 777350 allocs/op\nBenchmarkHot 100 50 ns/op 16 allocs/op\n")

	jitter := parseSample(t, "BenchmarkBig 1 1000 ns/op 777352 allocs/op\nBenchmarkHot 100 50 ns/op 16 allocs/op\n")
	if regs, _ := Diff(base, jitter, 0.15); len(regs) != 0 {
		t.Errorf("scheduling jitter (+2 in 777k allocs) failed the gate: %+v", regs)
	}

	grown := parseSample(t, "BenchmarkBig 1 1000 ns/op 779000 allocs/op\nBenchmarkHot 100 50 ns/op 17 allocs/op\n")
	regs, _ := Diff(base, grown, 0.15)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkBig" || regs[0].Metric != "allocs/op" {
		t.Errorf("+0.2%% alloc growth not gated: %+v", regs[0])
	}
	if regs[1].Name != "BenchmarkHot" || regs[1].Metric != "allocs/op" {
		t.Errorf("single extra hot-path allocation not gated: %+v", regs[1])
	}
}

// TestDiffMinOfCounts pins duplicate folding: -count reruns compare by
// their minimum, so a single noisy rerun cannot fail the gate.
func TestDiffMinOfCounts(t *testing.T) {
	base := parseSample(t, "BenchmarkX 10 1000 ns/op 5 allocs/op\n")
	head := parseSample(t, "BenchmarkX 10 5000 ns/op 5 allocs/op\nBenchmarkX 10 1050 ns/op 5 allocs/op\n")
	if regs, _ := Diff(base, head, 0.15); len(regs) != 0 {
		t.Errorf("min-of-counts not applied: %+v", regs)
	}
}

// TestDiffMatchesAcrossCPUCounts pins the GOMAXPROCS suffix rule: a
// baseline recorded at one CPU (no suffix) matches heads recorded at 2
// and 8 CPUs, sub-benchmarks included, and still gates them.
func TestDiffMatchesAcrossCPUCounts(t *testing.T) {
	base := parseSample(t, "BenchmarkEvaluate 10 1000 ns/op 5 allocs/op\n"+
		"BenchmarkServeParallelStep/workers=1 10 1000 ns/op 5 allocs/op\n")
	for _, cpus := range []string{"2", "8"} {
		head := parseSample(t, "BenchmarkEvaluate-"+cpus+" 10 1000 ns/op 5 allocs/op\n"+
			"BenchmarkServeParallelStep/workers=1-"+cpus+" 10 1000 ns/op 6 allocs/op\n")
		regs, matched := Diff(base, head, 0.15)
		if matched != 2 {
			t.Errorf("-%s head matched %d benchmarks, want 2", cpus, matched)
		}
		if len(regs) != 1 || regs[0].Name != "BenchmarkServeParallelStep/workers=1-"+cpus || regs[0].Metric != "allocs/op" {
			t.Errorf("-%s head: got %+v, want the sub-benchmark's allocs/op growth", cpus, regs)
		}
	}
}
