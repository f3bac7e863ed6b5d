package grid

import (
	"math"
	"math/rand"
	"testing"
)

// refIntersect is the reference overlap, computed with exclusive ends in
// uint64, where origin+dims of any non-negative box fits without wrap.
func refIntersect(a, b Box) (Box, bool) {
	var out Box
	for ax := 0; ax < 3; ax++ {
		lo := max(uint64(a.Origin[ax]), uint64(b.Origin[ax]))
		hi := min(uint64(a.Origin[ax])+uint64(a.Dims[ax]), uint64(b.Origin[ax])+uint64(b.Dims[ax]))
		if hi <= lo {
			return Box{}, false
		}
		out.Origin[ax], out.Dims[ax] = int(lo), int(hi-lo)
	}
	return out, true
}

// refWithin is the reference bounds check in uint64.
func refWithin(b Box, vol [3]int) bool {
	for ax := 0; ax < 3; ax++ {
		if b.Origin[ax] < 0 || b.Dims[ax] <= 0 || uint64(b.Origin[ax])+uint64(b.Dims[ax]) > uint64(vol[ax]) {
			return false
		}
	}
	return true
}

// contains reports whether r lies inside b, written in differences so it
// holds near math.MaxInt too.
func contains(b, r Box) bool {
	for ax := 0; ax < 3; ax++ {
		if r.Origin[ax] < b.Origin[ax] || r.Dims[ax] > b.Dims[ax] ||
			r.Origin[ax]-b.Origin[ax] > b.Dims[ax]-r.Dims[ax] {
			return false
		}
	}
	return true
}

// boxGen draws the boxes of the property test.
type boxGen struct{ rng *rand.Rand }

// odd returns a random odd extent in [1, 2n-1].
func (g boxGen) odd(n int) int { return 2*g.rng.Intn(n) + 1 }

// small is a box with odd dims near the origin.
func (g boxGen) small() Box {
	var b Box
	for ax := 0; ax < 3; ax++ {
		b.Origin[ax] = g.rng.Intn(12)
		b.Dims[ax] = g.odd(6)
	}
	return b
}

// nearMax is a box whose origin lies within 16 of math.MaxInt. With
// fit set, its samples all have representable coordinates (the end
// origin+dims is at most MaxInt+1); otherwise its dims may run far past.
func (g boxGen) nearMax(fit bool) Box {
	var b Box
	for ax := 0; ax < 3; ax++ {
		b.Origin[ax] = math.MaxInt - g.rng.Intn(16)
		if fit {
			b.Dims[ax] = 1 + g.rng.Intn(math.MaxInt-b.Origin[ax]+1)
		} else {
			b.Dims[ax] = g.odd(1 << 20)
		}
	}
	return b
}

func (g boxGen) pair(i int) (Box, Box) {
	switch i % 4 {
	case 0:
		return g.small(), g.small()
	case 1:
		// Face-touching: b starts exactly where a ends on one axis.
		a, b := g.small(), g.small()
		ax := g.rng.Intn(3)
		b.Origin[ax] = a.Origin[ax] + a.Dims[ax]
		return a, b
	case 2:
		return g.nearMax(g.rng.Intn(2) == 0), g.nearMax(g.rng.Intn(2) == 0)
	default:
		return g.small(), g.nearMax(false)
	}
}

// TestBoxIntersectProperties: Intersect matches the uint64 reference,
// is symmetric, and is contained in both operands — on small odd boxes,
// face-touching pairs (always empty) and origins near math.MaxInt.
func TestBoxIntersectProperties(t *testing.T) {
	g := boxGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 20000; i++ {
		a, b := g.pair(i)
		ab, okAB := a.Intersect(b)
		ba, okBA := b.Intersect(a)
		want, wantOK := refIntersect(a, b)
		if okAB != wantOK || (okAB && ab != want) {
			t.Fatalf("%+v ∩ %+v = %+v,%v; reference %+v,%v", a, b, ab, okAB, want, wantOK)
		}
		if okAB != okBA || ab != ba {
			t.Fatalf("Intersect not symmetric: %+v ∩ %+v = %+v,%v but reversed %+v,%v", a, b, ab, okAB, ba, okBA)
		}
		if i%4 == 1 && okAB {
			t.Fatalf("face-touching %+v, %+v intersect in %+v", a, b, ab)
		}
		if okAB && (!contains(a, ab) || !contains(b, ab)) {
			t.Fatalf("%+v ∩ %+v = %+v is not inside both", a, b, ab)
		}
	}
}

// TestBoxWithinNeverLeaves: Within agrees with the uint64 reference, so
// it never accepts a box that leaves the volume — including origins
// whose origin+dims overflows int, the case a naive check accepts.
func TestBoxWithinNeverLeaves(t *testing.T) {
	g := boxGen{rand.New(rand.NewSource(2))}
	vols := [][3]int{{16, 16, 16}, {7, 9, 5}, {math.MaxInt, math.MaxInt, math.MaxInt}, {math.MaxInt, 1, 3}}
	for i := 0; i < 20000; i++ {
		a, _ := g.pair(i)
		if i%3 == 0 {
			a.Dims[g.rng.Intn(3)] = -g.rng.Intn(3) // empty or negative extent
		}
		vol := vols[i%len(vols)]
		if got, want := a.Within(vol), refWithin(a, vol); got != want {
			t.Fatalf("%+v.Within(%v) = %v, reference %v", a, vol, got, want)
		}
	}
	overflow := Box{Origin: [3]int{math.MaxInt, 0, 0}, Dims: [3]int{1, 1, 1}}
	if overflow.Within([3]int{16, 16, 16}) {
		t.Fatal("Within accepted an origin at math.MaxInt")
	}
	if !(Box{Dims: [3]int{16, 16, 16}}).Within([3]int{16, 16, 16}) {
		t.Fatal("Within rejected the whole volume")
	}
}

// refCopy is the per-voxel reference for CopyBox: every voxel of dstBox
// that srcBox also covers takes src's value; the rest keep theirs.
func refCopy(dst []float64, dstBox Box, src []float64, srcBox Box) {
	inside := func(b Box, p [3]int) bool {
		for ax := 0; ax < 3; ax++ {
			if p[ax] < b.Origin[ax] || p[ax]-b.Origin[ax] >= b.Dims[ax] {
				return false
			}
		}
		return true
	}
	at := func(b Box, p [3]int) int {
		return ((p[2]-b.Origin[2])*b.Dims[1]+(p[1]-b.Origin[1]))*b.Dims[0] + p[0] - b.Origin[0]
	}
	for z := 0; z < dstBox.Dims[2]; z++ {
		for y := 0; y < dstBox.Dims[1]; y++ {
			for x := 0; x < dstBox.Dims[0]; x++ {
				p := [3]int{dstBox.Origin[0] + x, dstBox.Origin[1] + y, dstBox.Origin[2] + z}
				if inside(srcBox, p) {
					dst[at(dstBox, p)] = src[at(srcBox, p)]
				}
			}
		}
	}
}

// TestCopyBoxMatchesReference: CopyBox writes exactly what the per-voxel
// loop writes, for random odd boxes that overlap, touch, or miss, and
// for small boxes just below math.MaxInt.
func TestCopyBoxMatchesReference(t *testing.T) {
	g := boxGen{rand.New(rand.NewSource(3))}
	for i := 0; i < 3000; i++ {
		var a, b Box
		if i%5 == 4 {
			// Small boxes at the top of the int range: the samples are
			// representable, their exclusive ends may not be.
			for ax := 0; ax < 3; ax++ {
				a.Origin[ax] = math.MaxInt - g.rng.Intn(8)
				b.Origin[ax] = math.MaxInt - g.rng.Intn(8)
				a.Dims[ax] = 1 + g.rng.Intn(math.MaxInt-a.Origin[ax]+1)
				b.Dims[ax] = 1 + g.rng.Intn(math.MaxInt-b.Origin[ax]+1)
			}
		} else {
			a, b = g.pair(i % 2)
		}
		src := make([]float64, b.Len())
		for k := range src {
			src[k] = g.rng.Float64()
		}
		got := make([]float64, a.Len())
		for k := range got {
			got[k] = -1 - float64(k)
		}
		want := append([]float64(nil), got...)
		CopyBox(got, a, src, b)
		refCopy(want, a, src, b)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("CopyBox(%+v <- %+v): sample %d = %g, reference %g", a, b, k, got[k], want[k])
			}
		}
	}
}
