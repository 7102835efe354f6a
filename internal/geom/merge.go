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
// The merged regions are appended to dst and the extended slice is
// returned; dst may be boxes[:0], which merges in place. Otherwise the
// input is not modified.
//
// Each live box's cost, and the cost of each live pair's union, is
// computed once and cached, so a round scans cached values and a merge
// reprices only the merged box's pairs: O(n²) cost calls in all
// instead of O(n²) per round. Up to 64 boxes the caches live on the
// stack, and with room in dst nothing is allocated; past that, the
// costs and the pair matrix share one heap slab.
func GreedyMerge(dst, boxes []Box, cost CostFunc) []Box {
	base := len(dst)
	for _, b := range boxes {
		if !b.Empty() {
			dst = append(dst, b)
		}
	}
	out := dst[base:]
	n := len(out)
	switch {
	case n < 2:
	case n <= 16:
		var c [16]float64
		var u [16 * 16]float64
		out = greedyMerge(out, cost, c[:n], u[:n*n])
	case n <= 64:
		out = greedyMerge64(out, cost)
	default:
		slab := make([]float64, n+n*n)
		out = greedyMerge(out, cost, slab[:n], slab[n:])
	}
	return dst[:base+len(out)]
}

// greedyMerge64 merges 17 to 64 boxes with the caches on its own stack
// frame, so only frames this crowded pay for zeroing the 32 KB matrix
// and GreedyMerge's frame (and the stack of every goroutine that calls
// it) stays small.
//
//go:noinline
func greedyMerge64(out []Box, cost CostFunc) []Box {
	var c [64]float64
	var u [64 * 64]float64
	return greedyMerge(out, cost, c[:len(out)], u[:len(out)*len(out)])
}

// greedyMerge runs the merge rounds over the non-empty boxes in out,
// with c (len(out)) caching each box's cost and the upper triangle of
// the row-major len(out)-square u caching the cost of the union of
// out[i] and out[j] for i < j. Unions of non-empty boxes are non-empty,
// so hull stands in for Union throughout. hull is commutative bit for
// bit and cost is pure, so every cached value equals what an uncached
// scan would compute at the pair's current positions, and the scan
// below (same gain expression, i<j order and strict >) picks the same
// pair.
func greedyMerge(out []Box, cost CostFunc, c, u []float64) []Box {
	stride := len(out)
	for i, b := range out {
		c[i] = cost(b)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			u[i*stride+j] = cost(hull(out[i], out[j]))
		}
	}
	for {
		bestI, bestJ := -1, -1
		bestGain := 0.0
		for i := range c {
			ci, row := c[i], u[i*stride:i*stride+len(c)]
			for j := i + 1; j < len(row); j++ {
				gain := ci + c[j] - row[j]
				if gain > bestGain {
					bestGain, bestI, bestJ = gain, i, j
				}
			}
		}
		if bestI < 0 {
			return out
		}
		last := len(out) - 1
		out[bestI], c[bestI] = hull(out[bestI], out[bestJ]), u[bestI*stride+bestJ]
		// The last box moves into bestJ's slot, taking its pair costs
		// with it; then the merged box's pairs are repriced.
		out[bestJ], c[bestJ] = out[last], c[last]
		for k := 0; k < last; k++ {
			if k != bestJ {
				u[pair(k, bestJ, stride)] = u[pair(k, last, stride)]
			}
		}
		out, c = out[:last], c[:last]
		for k := range out {
			if k != bestI {
				u[pair(k, bestI, stride)] = cost(hull(out[k], out[bestI]))
			}
		}
	}
}

// pair returns the index of the unordered pair {i, j} in the upper
// triangle of a row-major matrix with the given stride.
func pair(i, j, stride int) int {
	if i > j {
		i, j = j, i
	}
	return i*stride + j
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
