package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The reference implementations below are the cell-at-a-time mask and
// the uncached greedy merge that the word-level versions replaced. They
// live only in tests: every word of the bitset, every BoxCoverage value
// and every merge result must equal theirs.

// refCellRange is the original cell-range conversion. It panics on a
// box with a NaN coordinate, so callers screen those out.
func refCellRange(m *Mask, b Box) (x0, y0, x1, y1 int, ok bool) {
	b = b.Clip(m.w, m.h)
	if b.Empty() {
		return 0, 0, 0, 0, false
	}
	x0 = int(b.X1 / m.cell)
	y0 = int(b.Y1 / m.cell)
	x1 = int(math.Ceil(b.X2/m.cell)) - 1
	y1 = int(math.Ceil(b.Y2/m.cell)) - 1
	if x1 >= m.nx {
		x1 = m.nx - 1
	}
	if y1 >= m.ny {
		y1 = m.ny - 1
	}
	return x0, y0, x1, y1, true
}

func refIndex(m *Mask, cx, cy int) (word int, bit uint) {
	i := cy*m.nx + cx
	return i / 64, uint(i % 64)
}

func refAddBox(m *Mask, b Box) {
	x0, y0, x1, y1, ok := refCellRange(m, b)
	if !ok {
		return
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			w, bit := refIndex(m, cx, cy)
			m.bits[w] |= 1 << bit
		}
	}
}

func refBoxCoverage(m *Mask, b Box) float64 {
	x0, y0, x1, y1, ok := refCellRange(m, b)
	if !ok {
		return 0
	}
	covered, total := 0, 0
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			total++
			w, bit := refIndex(m, cx, cy)
			if m.bits[w]&(1<<bit) != 0 {
				covered++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

func refGreedyMerge(boxes []Box, cost CostFunc) []Box {
	out := make([]Box, 0, len(boxes))
	for _, b := range boxes {
		if !b.Empty() {
			out = append(out, b)
		}
	}
	for {
		bestI, bestJ := -1, -1
		bestGain := 0.0
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				merged := out[i].Union(out[j])
				gain := cost(out[i]) + cost(out[j]) - cost(merged)
				if gain > bestGain {
					bestGain, bestI, bestJ = gain, i, j
				}
			}
		}
		if bestI < 0 {
			return out
		}
		out[bestI] = out[bestI].Union(out[bestJ])
		out[bestJ] = out[len(out)-1]
		out = out[:len(out)-1]
	}
}

// spanPair is one mask built by AddBox and its twin built by the
// reference, over the same geometry.
type spanPair struct {
	got, want *Mask
}

func newSpanPair(w, h, cell float64) spanPair {
	return spanPair{NewMask(w, h, cell), NewMask(w, h, cell)}
}

func (p spanPair) add(b Box) {
	p.got.AddBox(b)
	refAddBox(p.want, b)
}

// check compares the bitsets word for word and the coverage of q.
func (p spanPair) check(t *testing.T, q Box) {
	t.Helper()
	for i := range p.want.bits {
		if p.got.bits[i] != p.want.bits[i] {
			t.Fatalf("%gx%g cell %g: word %d = %#x, reference %#x",
				p.got.w, p.got.h, p.got.cell, i, p.got.bits[i], p.want.bits[i])
		}
	}
	if got, want := p.got.BoxCoverage(q), refBoxCoverage(p.want, q); got != want {
		t.Fatalf("%gx%g cell %g: BoxCoverage(%v) = %v, reference %v",
			p.got.w, p.got.h, p.got.cell, q, got, want)
	}
}

// cellBox returns the box covering exactly the cells [cx0, cx1] x
// [cy0, cy1].
func cellBox(m *Mask, cx0, cy0, cx1, cy1 int) Box {
	c := m.cell
	return Box{float64(cx0) * c, float64(cy0) * c, float64(cx1+1) * c, float64(cy1+1) * c}
}

// spanFrames are the frame sizes the differential tests cover: KITTI
// and CityPersons, whose grid widths are mostly not multiples of 64.
var spanFrames = [][2]float64{{1242, 375}, {2048, 1024}}

// Property: over every cell size 1..32 on both frames, random boxes
// (in, straddling and outside the frame, sub-cell and frame-sized)
// leave the same bits and the same coverage as the reference.
func TestMaskMatchesReferenceQuick(t *testing.T) {
	for _, fr := range spanFrames {
		for cell := 1.0; cell <= 32; cell++ {
			w, h := fr[0], fr[1]
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p := newSpanPair(w, h, cell)
				for i := 0; i < 6; i++ {
					p.add(randSpanBox(rng, w, h, cell))
					p.check(t, randSpanBox(rng, w, h, cell))
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// randSpanBox draws a box whose size ranges from a fraction of a cell to
// the whole frame, with corners that sometimes fall outside the frame.
func randSpanBox(rng *rand.Rand, w, h, cell float64) Box {
	x := rng.Float64()*(w+2*cell) - cell
	y := rng.Float64()*(h+2*cell) - cell
	var bw, bh float64
	switch rng.Intn(3) {
	case 0: // sub-cell
		bw, bh = rng.Float64()*cell, rng.Float64()*cell
	case 1: // detection-sized
		bw, bh = rng.Float64()*200, rng.Float64()*150
	default: // up to the whole frame
		bw, bh = rng.Float64()*w, rng.Float64()*h
	}
	return NewBox(x, y, x+bw, y+bh)
}

// Spans that start or end on a word boundary, single cells, sub-cell
// boxes and boxes on the frame edges, on every cell size of both frames.
func TestMaskSpanEdgesMatchReference(t *testing.T) {
	for _, fr := range spanFrames {
		for cell := 1.0; cell <= 32; cell++ {
			w, h := fr[0], fr[1]
			m := NewMask(w, h, cell)
			var boxes []Box
			// A one-cell span on each side of every word boundary, and
			// a row span running from one boundary to the next, in one
			// row per distinct row-start offset within a word, plus the
			// last row.
			var seen [64]bool
			for cy := 0; cy < m.ny; cy++ {
				off := cy * m.nx % 64
				if seen[off] && cy < m.ny-1 {
					continue
				}
				seen[off] = true
				for cx := (64 - off) % 64; cx < m.nx; cx += 64 {
					boxes = append(boxes, cellBox(m, cx, cy, cx, cy))
					if cx > 0 {
						boxes = append(boxes, cellBox(m, cx-1, cy, cx-1, cy))
					}
					end := cx + 63
					if end >= m.nx {
						end = m.nx - 1
					}
					boxes = append(boxes, cellBox(m, cx, cy, end, cy))
				}
			}
			boxes = append(boxes,
				Box{w - cell/3, h - cell/3, w, h},           // sub-cell, bottom-right corner
				Box{cell / 4, cell / 4, cell / 2, cell / 2}, // sub-cell, inside one cell
				Box{cell - 0.5, 0, cell + 0.5, 1},           // sub-cell across a cell edge
				Box{-10, -10, 0.5, 0.5},                     // frame corner
				Box{w - 1, 0, w + 50, h},                    // right edge column
				Box{0, h - 1, w, h + 50},                    // bottom edge row
				Box{-1, -1, w + 1, h + 1},                   // whole frame
				Box{w, 0, w + 10, h},                        // touches the frame from outside
				Box{math.Inf(-1), 10, 40, math.Inf(1)},      // infinite corners clip
				Box{w / 2, h / 2, w/2 + cell, h / 2},        // zero height
			)
			// Each box alone, then all of them accumulated.
			p := newSpanPair(w, h, cell)
			for _, b := range boxes {
				p.add(b)
				p.check(t, b)
				p.got.Reset()
				p.want.Reset()
			}
			for _, b := range boxes {
				p.add(b)
			}
			for _, b := range boxes {
				p.check(t, b)
			}
		}
	}
}

// A box one ulp wide that rounds onto a cell edge touches no cell: the
// reference loops run zero times, so the mask stays empty and the
// coverage is 0. With a cell of 0.1, 0.9/0.1 rounds to 9 and so does
// the division of the next float above 0.9.
func TestMaskSubUlpBoxTouchesNoCell(t *testing.T) {
	b := Box{0.9, 0.9, math.Nextafter(0.9, 1), math.Nextafter(0.9, 1)}
	p := newSpanPair(10, 10, 0.1)
	p.add(b)
	p.check(t, b)
	if n := p.got.CoveredCells(); n != 0 {
		t.Fatalf("sub-ulp box marked %d cells", n)
	}
}

// Regression: a NaN coordinate used to index the bitset with int(NaN)
// and panic. Such a box now misses the frame.
func TestMaskNaNBoxMissesFrame(t *testing.T) {
	nan := math.NaN()
	for _, b := range []Box{
		{X1: nan, Y1: 10, X2: 50, Y2: 60},
		{X1: 10, Y1: nan, X2: 50, Y2: 60},
		{X1: 10, Y1: 10, X2: nan, Y2: 60},
		{X1: 10, Y1: 10, X2: 50, Y2: nan},
		{X1: nan, Y1: nan, X2: nan, Y2: nan},
	} {
		m := NewMask(1242, 375, 8)
		m.AddBox(b)
		if n := m.CoveredCells(); n != 0 {
			t.Fatalf("AddBox(%v) marked %d cells", b, n)
		}
		m.AddBox(NewBox(0, 0, 1242, 375))
		if got := m.BoxCoverage(b); got != 0 {
			t.Fatalf("BoxCoverage(%v) = %v, want 0", b, got)
		}
	}
}

// mergeCosts are the cost functions the merge differential test runs
// under: launch-like, flat (every pair's gain ties), pure area and a
// concave cost.
var mergeCosts = []struct {
	name string
	cost CostFunc
}{
	{"launch", func(b Box) float64 { return 0.5 + b.Area()/1e5 }},
	{"flat", func(Box) float64 { return 1 }},
	{"area", func(b Box) float64 { return b.Area() }},
	{"sqrt", func(b Box) float64 { return 3 + math.Sqrt(b.Area()) }},
}

// checkMergeMatchesReference merges boxes with GreedyMerge and with the
// uncached reference and requires the same regions in the same order,
// bit for bit, and the input untouched.
func checkMergeMatchesReference(t *testing.T, label string, boxes []Box, cost CostFunc) bool {
	t.Helper()
	in := append([]Box(nil), boxes...)
	got, want := GreedyMerge(nil, boxes, cost), refGreedyMerge(append([]Box(nil), boxes...), cost)
	for i := range boxes {
		if !sameBits(boxes[i], in[i]) {
			t.Logf("%s: input box %d changed to %v", label, i, boxes[i])
			return false
		}
	}
	if len(got) != len(want) {
		t.Logf("%s: %d boxes merged to %d, reference %d", label, len(boxes), len(got), len(want))
		return false
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Logf("%s: region %d = %v, reference %v", label, i, got[i], want[i])
			return false
		}
	}
	return true
}

// mergeInput draws n boxes, a tenth of them empty; with special set,
// each coordinate is ±Inf or NaN one time in eight.
func mergeInput(rng *rand.Rand, n int, special bool) []Box {
	boxes := make([]Box, n)
	for i := range boxes {
		if rng.Intn(10) == 0 {
			continue // empty boxes are dropped
		}
		b := randBox(uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32()))
		if special {
			for _, v := range []*float64{&b.X1, &b.Y1, &b.X2, &b.Y2} {
				if rng.Intn(8) == 0 {
					*v = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
				}
			}
		}
		boxes[i] = b
	}
	return boxes
}

// Property: GreedyMerge makes every decision the uncached reference
// makes: for box counts on both sides of the 16- and 64-box stack
// buffers, for costs under which every gain ties (flat cost, identical
// boxes, evenly spaced equal boxes), and for boxes with ±Inf and NaN
// coordinates, whose NaN costs never win a round.
func TestGreedyMergeMatchesReference(t *testing.T) {
	for _, tc := range mergeCosts {
		name, cost := tc.name, tc.cost
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			return checkMergeMatchesReference(t, name, mergeInput(rng, int(n)%100, false), cost)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 99} {
			for _, special := range []bool{false, true} {
				label := fmt.Sprintf("%s, %d boxes, special %v", name, n, special)
				if !checkMergeMatchesReference(t, label, mergeInput(rng, n, special), cost) {
					t.FailNow()
				}
			}
			same, row := make([]Box, n), make([]Box, n)
			for i := range same {
				same[i] = NewBox(10, 20, 50, 60)
				row[i] = NewBox(float64(i*50), 0, float64(i*50+40), 40)
			}
			if !checkMergeMatchesReference(t, fmt.Sprintf("%s, %d identical boxes", name, n), same, cost) ||
				!checkMergeMatchesReference(t, fmt.Sprintf("%s, %d evenly spaced boxes", name, n), row, cost) {
				t.FailNow()
			}
		}
	}
}

// FuzzMaskSpans checks AddBox and BoxCoverage against the reference on
// arbitrary coordinates over both frames and cell sizes up to 32 in
// steps of 0.1, so cells that are not binary fractions are covered too;
// cells fine enough to give a grid over 2^20 cells are skipped. A box
// with a NaN coordinate must leave the mask untouched and cover 0.
func FuzzMaskSpans(f *testing.F) {
	f.Add(uint8(0), uint16(79), 100.0, 50.0, 180.0, 120.0, 90.0, 40.0, 200.0, 130.0)
	f.Add(uint8(1), uint16(0), 0.0, 0.0, 64.0, 1.0, 63.5, 0.0, 64.5, 1.0)
	f.Add(uint8(0), uint16(319), -30.0, -30.0, 1300.0, 400.0, 0.0, 0.0, 1242.0, 375.0)
	f.Add(uint8(0), uint16(10), 0.9, 0.9, 0.9000000000000001, 30.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(uint8(0), uint16(7), math.NaN(), 10.0, 50.0, 60.0, 10.0, 10.0, 50.0, 60.0)
	f.Fuzz(func(t *testing.T, frame uint8, cellQ uint16, x1, y1, x2, y2, qx1, qy1, qx2, qy2 float64) {
		fr := spanFrames[int(frame)%len(spanFrames)]
		w, h := fr[0], fr[1]
		cell := float64(cellQ%320+1) / 10
		if (w/cell)*(h/cell) > 1<<20 {
			return // keep the per-cell reference fast
		}
		add, q := Box{x1, y1, x2, y2}, Box{qx1, qy1, qx2, qy2}
		p := newSpanPair(w, h, cell)
		if hasNaN(add) {
			p.got.AddBox(add)
			if n := p.got.CoveredCells(); n != 0 {
				t.Fatalf("NaN box %v marked %d cells", add, n)
			}
		} else {
			p.add(add)
		}
		if hasNaN(q) {
			if got := p.got.BoxCoverage(q); got != 0 {
				t.Fatalf("BoxCoverage(%v) = %v, want 0", q, got)
			}
			q = Box{} // still compare the bitsets
		}
		p.check(t, q)
	})
}

func hasNaN(b Box) bool {
	return math.IsNaN(b.X1) || math.IsNaN(b.Y1) || math.IsNaN(b.X2) || math.IsNaN(b.Y2)
}
