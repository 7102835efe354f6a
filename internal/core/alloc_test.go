package core

import (
	"testing"

	"repro/internal/detector"
)

// stepBudget measures the steady-state per-frame allocation count of a
// system over the mini world after a warm-up pass.
func stepBudget(t *testing.T, sys System) float64 {
	t.Helper()
	seq := miniSeq(t)
	sys.Reset(seq)
	n := len(seq.Frames)
	for fi := 0; fi < n; fi++ { // warm every scratch buffer
		sys.Step(frameOf(seq, fi))
	}
	sys.Reset(seq)
	fi := 0
	return testing.AllocsPerRun(n-1, func() {
		sys.Step(frameOf(seq, fi))
		fi = (fi + 1) % n
	})
}

// TestStepAllocBudgets pins the steady-state per-frame allocation
// budget of each system's Step at zero: detector results, the
// returned Detections and Regions, masks, cost matrices, NMS
// bookkeeping and spawned tracks all live on reused scratch (tracks on
// the tracker's free list, which Reset keeps), so once a pass over the
// world has warmed them a second pass allocates nothing.
func TestStepAllocBudgets(t *testing.T) {
	cases := []struct {
		name string
		sys  System
	}{
		{"single", NewSingleModel(detector.MustNew("resnet50"))},
		{"cascaded", NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())},
		{"catdet", NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n := stepBudget(t, c.sys); n != 0 {
				t.Errorf("%s Step allocates %v per frame at steady state, budget is 0", c.name, n)
			}
		})
	}
}
