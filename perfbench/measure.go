package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// ledger counts operations per phase: calls into the program (New,
// Submit, Drain, Run, Evaluate) and output checks. A failed call or a
// failed check is a failed operation.
type ledger struct {
	phases []phaseOps
	log    io.Writer // failure messages; nil discards them
	logged int
}

type phaseOps struct {
	name              string
	attempted, failed int
}

// maxLogged bounds the failure messages written per run, so a check
// that fails on every frame does not flood the log.
const maxLogged = 20

func (l *ledger) phase(name string) *phaseOps {
	for i := range l.phases {
		if l.phases[i].name == name {
			return &l.phases[i]
		}
	}
	l.phases = append(l.phases, phaseOps{name: name})
	return &l.phases[len(l.phases)-1]
}

// call records one call into the program and returns err unchanged.
func (l *ledger) call(phase string, err error) error {
	p := l.phase(phase)
	p.attempted++
	if err != nil {
		p.failed++
		l.logf("%s: %v", phase, err)
	}
	return err
}

// check records one output check in phase "checks".
func (l *ledger) check(ok bool, format string, args ...any) {
	p := l.phase("checks")
	p.attempted++
	if !ok {
		p.failed++
		l.logf("check failed: "+format, args...)
	}
}

func (l *ledger) logf(format string, args ...any) {
	if l.log == nil || l.logged >= maxLogged {
		return
	}
	l.logged++
	fmt.Fprintf(l.log, "perfbench: "+format+"\n", args...)
}

func (l *ledger) totals() (attempted, failed int) {
	for _, p := range l.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted, failed
}

// instance is one workload set up and ready to run.
type instance interface {
	// run executes the workload once, from the first submission to the
	// drained result, recording its calls in the ledger.
	run(l *ledger) (outcome, error)
}

// outcome is what one run produced.
type outcome struct {
	// frames is the number of offered frames the run simulated.
	frames int
	// result is the program's result; its JSON digest must repeat
	// exactly across runs of one workload and seed.
	result any
}

// sample is one measured iteration: set-up, then the run phase.
type sample struct {
	ref       time.Duration // CPU time of the reference kernel, run first
	setup     time.Duration // process CPU time of set-up
	cpu, wall time.Duration // the run phase only
	frames    int
	mallocs   uint64 // heap allocations in the run phase
	liveHeap  uint64 // bytes live after the run, result still held
	digest    string // JSON digest of the result
}

// measure times the reference kernel, then sets up and runs the
// workload once. Set-up is timed on its own and kept out of the run
// phase's CPU and allocation counts; a forced collection first keeps
// garbage from earlier iterations from being charged to this one.
// Set-up and the run phase are timed on process CPU time, which leaves
// out time a shared host's hypervisor steals; the run phase is also
// timed on the wall clock.
func measure(setup func() (instance, error), l *ledger) (sample, outcome, error) {
	var s sample
	runtime.GC()
	s.ref = calibrate()
	t0 := cpuTime()
	inst, err := setup()
	s.setup = cpuTime() - t0
	if err != nil {
		return s, outcome{}, err
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	c0, w0 := cpuTime(), time.Now()
	out, err := inst.run(l)
	s.wall = time.Since(w0)
	s.cpu = cpuTime() - c0
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs - m0
	if err != nil {
		return s, out, err
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(inst)
	s.frames = out.frames
	s.digest, err = digest(out.result)
	return s, out, err
}

// minRounds is the fewest times every world is run, so each world's
// digest is checked against a repeat and its median has two samples.
const minRounds = 2

// measureFor runs a warm-up iteration of world 0, which fills caches
// and finishes lazy initialisation, then rounds over every world until
// the wall-clock budget is spent, stopping between two iterations once
// every world has run minRounds times. It returns each world's timed
// samples and the warm-up's outcome and result digest; every repeat of
// a world must reproduce its first digest exactly.
func measureFor(budget time.Duration, worlds int, setup func(world int) (instance, error), l *ledger) ([][]sample, outcome, string, error) {
	warm, first, err := measure(func() (instance, error) { return setup(0) }, l)
	if err != nil {
		return nil, first, "", err
	}
	ref := make([]string, worlds)
	ref[0] = warm.digest
	runs := make([][]sample, worlds)
	start := time.Now()
	for round := 0; ; round++ {
		for w := range runs {
			if round >= minRounds && time.Since(start) >= budget {
				return runs, first, warm.digest, nil
			}
			s, _, err := measure(func() (instance, error) { return setup(w) }, l)
			if err != nil {
				return nil, first, "", err
			}
			if ref[w] == "" {
				ref[w] = s.digest
			} else {
				l.check(s.digest == ref[w], "world %d: result digest of round %d differs from its first run", w, round+1)
			}
			runs[w] = append(runs[w], s)
		}
	}
}
