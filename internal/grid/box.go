package grid

// Box is an axis-aligned box of samples: Origin is its low corner and
// Dims its extent, both indexed x, y, z. A slice laid out over a box is
// row-major with x fastest, like Volume.Data. Box is the one region
// geometry of the tree: volume cutouts, chunk/region intersection,
// region bounds checks and the copy of a decoded chunk into a region all
// go through it.
//
// Origins are non-negative (volume coordinates). The exclusive end
// Origin+Dims is never computed, because it overflows for a box whose
// origin comes from an untrusted request; every comparison is written in
// differences that stay in range.
type Box struct {
	Origin, Dims [3]int
}

// Extent returns d as an x, y, z triple.
func (d Dims) Extent() [3]int { return [3]int{d.NX, d.NY, d.NZ} }

// Box returns the chunk's box in volume coordinates.
func (c Chunk) Box() Box {
	return Box{Origin: [3]int{c.X0, c.Y0, c.Z0}, Dims: c.Dims.Extent()}
}

// Len returns the number of samples in the box.
func (b Box) Len() int { return b.Dims[0] * b.Dims[1] * b.Dims[2] }

// Within reports whether b is non-empty and lies inside a volume of
// extent vol anchored at the origin. It tests origin <= vol-dims, which
// cannot overflow once 0 < dims <= vol, rather than origin+dims <= vol,
// which can.
func (b Box) Within(vol [3]int) bool {
	for a := 0; a < 3; a++ {
		if b.Origin[a] < 0 || b.Dims[a] <= 0 || b.Dims[a] > vol[a] || b.Origin[a] > vol[a]-b.Dims[a] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of b and c and whether it is non-empty.
// Each axis of the overlap starts at the larger origin and is as long as
// the shorter of the two remainders past it.
func (b Box) Intersect(c Box) (Box, bool) {
	var out Box
	for a := 0; a < 3; a++ {
		if b.Dims[a] <= 0 || c.Dims[a] <= 0 {
			return Box{}, false
		}
		lo := max(b.Origin[a], c.Origin[a])
		n := min(b.Dims[a]-(lo-b.Origin[a]), c.Dims[a]-(lo-c.Origin[a]))
		if n <= 0 {
			return Box{}, false
		}
		out.Origin[a], out.Dims[a] = lo, n
	}
	return out, true
}

// offset returns the position of point p, in the coordinates b lives
// in, within a slice laid out over b. It works in differences from b's
// origin, so it is exact for any p inside b.
func (b Box) offset(p [3]int) int {
	return ((p[2]-b.Origin[2])*b.Dims[1]+(p[1]-b.Origin[1]))*b.Dims[0] + p[0] - b.Origin[0]
}

// CopyBox copies the overlap of dstBox and srcBox from src, laid out
// over srcBox, into dst, laid out over dstBox, one x row at a time. Both
// boxes are in the same coordinates; disjoint boxes copy nothing.
func CopyBox(dst []float64, dstBox Box, src []float64, srcBox Box) {
	in, ok := dstBox.Intersect(srcBox)
	if !ok {
		return
	}
	nx := in.Dims[0]
	s, d := srcBox.offset(in.Origin), dstBox.offset(in.Origin)
	for z := 0; z < in.Dims[2]; z++ {
		si, di := s, d
		for y := 0; y < in.Dims[1]; y++ {
			copy(dst[di:di+nx], src[si:si+nx])
			si += srcBox.Dims[0]
			di += dstBox.Dims[0]
		}
		s += srcBox.Dims[0] * srcBox.Dims[1]
		d += dstBox.Dims[0] * dstBox.Dims[1]
	}
}
