// Package geom provides the geometric primitives used throughout CaTDet:
// axis-aligned bounding boxes, intersection-over-union, non-maximum
// suppression, pixel-region masks for selected-region inference, and the
// greedy box-merging heuristic from the paper's GPU appendix.
//
// Coordinates follow the image convention: x grows rightwards, y grows
// downwards, and a box is the half-open region [X1,X2) x [Y1,Y2) in
// floating-point pixel units.
package geom

import (
	"fmt"
	"math"
)

// Box is an axis-aligned bounding box in pixel coordinates.
// X1 <= X2 and Y1 <= Y2 hold for every valid box.
type Box struct {
	X1, Y1, X2, Y2 float64
}

// NewBox returns the box spanning the two corner points, normalizing the
// corner order so the result is valid even if the corners are swapped.
func NewBox(x1, y1, x2, y2 float64) Box {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Box{X1: x1, Y1: y1, X2: x2, Y2: y2}
}

// NewBoxCenter returns the box with the given center, width and height.
func NewBoxCenter(cx, cy, w, h float64) Box {
	return Box{X1: cx - w/2, Y1: cy - h/2, X2: cx + w/2, Y2: cy + h/2}
}

// Width returns the horizontal extent of the box.
func (b Box) Width() float64 { return b.X2 - b.X1 }

// Height returns the vertical extent of the box.
func (b Box) Height() float64 { return b.Y2 - b.Y1 }

// Area returns the area of the box; zero-or-negative extents yield 0.
func (b Box) Area() float64 {
	w, h := b.Width(), b.Height()
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Center returns the center point of the box.
func (b Box) Center() (x, y float64) {
	return (b.X1 + b.X2) / 2, (b.Y1 + b.Y2) / 2
}

// AspectRatio returns height divided by width, the "r" state variable of
// the paper's tracker. It returns 0 for degenerate boxes.
func (b Box) AspectRatio() float64 {
	w := b.Width()
	if w <= 0 {
		return 0
	}
	return b.Height() / w
}

// Empty reports whether the box has no area.
func (b Box) Empty() bool { return b.Width() <= 0 || b.Height() <= 0 }

// Valid reports whether the box coordinates are ordered and finite.
func (b Box) Valid() bool {
	for _, v := range [...]float64{b.X1, b.Y1, b.X2, b.Y2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return b.X1 <= b.X2 && b.Y1 <= b.Y2
}

// Translate returns the box shifted by (dx, dy).
func (b Box) Translate(dx, dy float64) Box {
	return Box{X1: b.X1 + dx, Y1: b.Y1 + dy, X2: b.X2 + dx, Y2: b.Y2 + dy}
}

// Scale returns the box scaled about its own center by the given factors.
func (b Box) Scale(sx, sy float64) Box {
	cx, cy := b.Center()
	return NewBoxCenter(cx, cy, b.Width()*sx, b.Height()*sy)
}

// Expand returns the box grown by margin pixels on every side. The paper
// appends a 30-pixel margin around proposals before feature extraction.
func (b Box) Expand(margin float64) Box {
	return Box{X1: b.X1 - margin, Y1: b.Y1 - margin, X2: b.X2 + margin, Y2: b.Y2 + margin}
}

// Intersect returns the overlapping region of two boxes. The result may be
// empty (zero area) when the boxes do not overlap.
func (b Box) Intersect(o Box) Box {
	r := Box{
		X1: fmax(b.X1, o.X1),
		Y1: fmax(b.Y1, o.Y1),
		X2: fmin(b.X2, o.X2),
		Y2: fmin(b.Y2, o.Y2),
	}
	if r.X1 >= r.X2 || r.Y1 >= r.Y2 {
		return Box{}
	}
	return r
}

// Union returns the smallest box containing both boxes.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return hull(b, o)
}

// hull is Union for two non-empty boxes, whose union is non-empty too.
func hull(b, o Box) Box {
	return Box{
		X1: fmin(b.X1, o.X1),
		Y1: fmin(b.Y1, o.Y1),
		X2: fmax(b.X2, o.X2),
		Y2: fmax(b.Y2, o.Y2),
	}
}

// Clip returns the box clipped to the frame [0,w) x [0,h).
func (b Box) Clip(w, h float64) Box {
	return Box{
		X1: fmax(0, fmin(b.X1, w)),
		Y1: fmax(0, fmin(b.Y1, h)),
		X2: fmax(0, fmin(b.X2, w)),
		Y2: fmax(0, fmin(b.Y2, h)),
	}
}

// fmin and fmax return exactly what math.Min and math.Max return, bit
// for bit, without the call: math.Max is an assembly call on amd64, and
// Union, Intersect and Clip sit inside the greedy merge and the mask
// loops. The builtin min and max compile to branch-free code and agree
// with math.Min and math.Max, signed zeros and infinities included,
// unless an operand is NaN: then they return NaN where
// math.Min(NaN, -Inf) and math.Max(NaN, +Inf) return the infinity, and
// min flips the sign of the NaN it propagates. NaN operands therefore
// take the math call, behind a branch that real boxes never take
// (comparing the operands instead would branch unpredictably). Both
// are symmetric in the operands, bit for bit, and so is hull.
func fmin(x, y float64) float64 {
	if x == x && y == y {
		return min(x, y)
	}
	return math.Min(x, y)
}

func fmax(x, y float64) float64 {
	if x == x && y == y {
		return max(x, y)
	}
	return math.Max(x, y)
}

// Contains reports whether the point (x, y) lies inside the box.
func (b Box) Contains(x, y float64) bool {
	return x >= b.X1 && x < b.X2 && y >= b.Y1 && y < b.Y2
}

// ContainsBox reports whether o lies entirely within b.
func (b Box) ContainsBox(o Box) bool {
	return o.X1 >= b.X1 && o.Y1 >= b.Y1 && o.X2 <= b.X2 && o.Y2 <= b.Y2
}

// IoU returns the intersection-over-union of two boxes in [0, 1].
func IoU(a, b Box) float64 {
	inter := a.Intersect(b).Area()
	if inter <= 0 {
		return 0
	}
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// CoverFraction returns the fraction of a's area covered by b, in [0, 1].
// It is used to decide whether a ground-truth object is visible inside a
// selected inference region.
func CoverFraction(a, b Box) float64 {
	area := a.Area()
	if area <= 0 {
		return 0
	}
	return a.Intersect(b).Area() / area
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%.1f,%.1f,%.1f,%.1f]", b.X1, b.Y1, b.X2, b.Y2)
}
