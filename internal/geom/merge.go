package geom

// CostFunc estimates the execution cost of processing a rectangular
// region. The paper's GPU appendix models the execution time of a CNN
// workload W as T = alpha*W + b, where the constant b penalizes each
// separately-launched region; under such a model merging nearby boxes can
// reduce total time even though the merged box covers more pixels.
type CostFunc func(b Box) float64

// GreedyMerge implements the greedy bounding-box merging algorithm from
// the paper's Appendix I: two boxes are merged whenever the estimated
// execution cost of their union is smaller than the sum of their
// individual costs. Merging repeats until no profitable pair remains.
// The input is not modified; the result holds the merged regions.
//
// Each live box's cost is computed once and kept beside it, so a round
// calls cost only for the candidate unions. Up to 64 boxes the costs
// live on the stack and the result slice is the only allocation.
func GreedyMerge(boxes []Box, cost CostFunc) []Box {
	out := make([]Box, 0, len(boxes))
	for _, b := range boxes {
		if !b.Empty() {
			out = append(out, b)
		}
	}
	var buf [64]float64
	c := buf[:0]
	if len(out) > len(buf) {
		c = make([]float64, 0, len(out))
	}
	for _, b := range out {
		c = append(c, cost(b))
	}
	for {
		bestI, bestJ := -1, -1
		bestGain, bestCost := 0.0, 0.0
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				mc := cost(out[i].Union(out[j]))
				gain := c[i] + c[j] - mc
				if gain > bestGain {
					bestGain, bestCost, bestI, bestJ = gain, mc, i, j
				}
			}
		}
		if bestI < 0 {
			return out
		}
		last := len(out) - 1
		out[bestI], c[bestI] = out[bestI].Union(out[bestJ]), bestCost
		out[bestJ], c[bestJ] = out[last], c[last]
		out, c = out[:last], c[:last]
	}
}

// UnionArea returns the exact area of the union of the boxes via a sweep
// over the distinct x-intervals. It is used by tests to validate the
// grid-mask approximation and by cost models that need exact coverage.
func UnionArea(boxes []Box) float64 {
	events := make([]float64, 0, 2*len(boxes))
	for _, b := range boxes {
		if b.Empty() {
			continue
		}
		events = append(events, b.X1, b.X2)
	}
	if len(events) == 0 {
		return 0
	}
	sortFloats(events)
	total := 0.0
	for i := 0; i+1 < len(events); i++ {
		x0, x1 := events[i], events[i+1]
		if x1 <= x0 {
			continue
		}
		// Collect y-intervals of boxes spanning this x-slab and sum
		// their merged length.
		var ys []yiv
		for _, b := range boxes {
			if b.X1 <= x0 && b.X2 >= x1 && !b.Empty() {
				ys = append(ys, yiv{b.Y1, b.Y2})
			}
		}
		total += mergedLength(ys) * (x1 - x0)
	}
	return total
}

type yiv struct{ lo, hi float64 }

func mergedLength(ivs []yiv) float64 {
	if len(ivs) == 0 {
		return 0
	}
	// Insertion sort by lo; interval counts here are small.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	total := 0.0
	curLo, curHi := ivs[0].lo, ivs[0].hi
	for _, iv := range ivs[1:] {
		if iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	return total + (curHi - curLo)
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
