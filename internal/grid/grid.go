// Package grid provides containers and geometry helpers for structured
// scientific data: dense 2D/3D volumes stored in row-major (x fastest)
// order, cutouts, linearization, and chunk decomposition used by the
// parallel compression driver.
package grid

import "fmt"

// Dims describes the extent of a 3D volume. 2D data uses NZ == 1.
type Dims struct {
	NX, NY, NZ int
}

// D3 builds a 3D Dims.
func D3(nx, ny, nz int) Dims { return Dims{nx, ny, nz} }

// D2 builds a 2D Dims (NZ = 1).
func D2(nx, ny int) Dims { return Dims{nx, ny, 1} }

// Len returns the number of points.
func (d Dims) Len() int { return d.NX * d.NY * d.NZ }

// Is2D reports whether the volume is a single slice.
func (d Dims) Is2D() bool { return d.NZ == 1 }

// Valid reports whether all extents are positive.
func (d Dims) Valid() bool { return d.NX > 0 && d.NY > 0 && d.NZ > 0 }

// String implements fmt.Stringer.
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.NX, d.NY, d.NZ) }

// Index linearizes (x, y, z); x varies fastest.
func (d Dims) Index(x, y, z int) int { return (z*d.NY+y)*d.NX + x }

// Coords inverts Index.
func (d Dims) Coords(i int) (x, y, z int) {
	x = i % d.NX
	y = (i / d.NX) % d.NY
	z = i / (d.NX * d.NY)
	return
}

// Volume is a dense 3D scalar field in row-major order (x fastest).
type Volume struct {
	Dims Dims
	Data []float64
}

// NewVolume allocates a zeroed volume.
func NewVolume(d Dims) *Volume {
	return &Volume{Dims: d, Data: make([]float64, d.Len())}
}

// FromSlice wraps data (not copied) with the given dims.
// It panics if the length does not match.
func FromSlice(d Dims, data []float64) *Volume {
	if len(data) != d.Len() {
		panic(fmt.Sprintf("grid: data length %d != dims %v (%d)", len(data), d, d.Len()))
	}
	return &Volume{Dims: d, Data: data}
}

// At returns the value at (x, y, z).
func (v *Volume) At(x, y, z int) float64 { return v.Data[v.Dims.Index(x, y, z)] }

// Set stores the value at (x, y, z).
func (v *Volume) Set(x, y, z int, val float64) { v.Data[v.Dims.Index(x, y, z)] = val }

// Clone deep-copies the volume.
func (v *Volume) Clone() *Volume {
	out := NewVolume(v.Dims)
	copy(out.Data, v.Data)
	return out
}

// Range returns the minimum and maximum values. An empty volume returns 0, 0.
func (v *Volume) Range() (lo, hi float64) {
	if len(v.Data) == 0 {
		return 0, 0
	}
	lo, hi = v.Data[0], v.Data[0]
	for _, x := range v.Data[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Cutout copies the box of size dims anchored at (x0, y0, z0).
// It panics if the box exceeds the volume bounds.
func (v *Volume) Cutout(x0, y0, z0 int, dims Dims) *Volume {
	return FromSlice(dims, v.CutoutInto(nil, x0, y0, z0, dims))
}

// CutoutInto copies the box of size dims anchored at (x0, y0, z0) into
// dst, growing it as needed, and returns the filled dims.Len() slice. It
// is the allocation-free counterpart of Cutout for pooled chunk slabs;
// pass nil to allocate fresh. It panics if the box exceeds the volume
// bounds.
func (v *Volume) CutoutInto(dst []float64, x0, y0, z0 int, dims Dims) []float64 {
	box := v.box("cutout", x0, y0, z0, dims)
	n := box.Len()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	CopyBox(dst, box, v.Data, Box{Dims: v.Dims.Extent()})
	return dst
}

// Insert writes src into the volume with its origin at (x0, y0, z0).
// It panics if src exceeds the volume bounds.
func (v *Volume) Insert(src *Volume, x0, y0, z0 int) {
	v.InsertSlice(src.Data, src.Dims, x0, y0, z0)
}

// InsertSlice writes the row-major box data (extent d) into the volume
// with its origin at (x0, y0, z0) — Insert without the *Volume wrapper,
// for pipelines whose chunk data lives in pooled slabs.
func (v *Volume) InsertSlice(data []float64, d Dims, x0, y0, z0 int) {
	CopyBox(v.Data, Box{Dims: v.Dims.Extent()}, data, v.box("insert", x0, y0, z0, d))
}

// box returns the box of extent d anchored at (x0, y0, z0), panicking
// (with op in the message) unless it lies within the volume.
func (v *Volume) box(op string, x0, y0, z0 int, d Dims) Box {
	b := Box{Origin: [3]int{x0, y0, z0}, Dims: d.Extent()}
	if !b.Within(v.Dims.Extent()) {
		panic(fmt.Sprintf("grid: %s %v@(%d,%d,%d) exceeds volume %v", op, d, x0, y0, z0, v.Dims))
	}
	return b
}

// ToFloat32 converts the data to float32.
func (v *Volume) ToFloat32() []float32 {
	out := make([]float32, len(v.Data))
	for i, x := range v.Data {
		out[i] = float32(x)
	}
	return out
}

// FromFloat32 builds a float64 volume from float32 data.
func FromFloat32(d Dims, data []float32) *Volume {
	if len(data) != d.Len() {
		panic(fmt.Sprintf("grid: data length %d != dims %v (%d)", len(data), d, d.Len()))
	}
	v := NewVolume(d)
	for i, x := range data {
		v.Data[i] = float64(x)
	}
	return v
}

// Chunk describes one box of a chunk decomposition.
type Chunk struct {
	X0, Y0, Z0 int  // origin within the parent volume
	Dims       Dims // extent of this chunk
}

// SplitChunks decomposes vol into boxes of at most chunkDims along each
// axis. Remainder chunks at the high ends are smaller, so any chunk size
// works with any volume size (Section III-D of the paper). Chunks are
// ordered z-major, matching the concatenation order of per-chunk
// bitstreams.
func SplitChunks(vol, chunkDims Dims) []Chunk {
	cx := clampChunk(chunkDims.NX, vol.NX)
	cy := clampChunk(chunkDims.NY, vol.NY)
	cz := clampChunk(chunkDims.NZ, vol.NZ)
	var chunks []Chunk
	for z0 := 0; z0 < vol.NZ; z0 += cz {
		nz := min(cz, vol.NZ-z0)
		for y0 := 0; y0 < vol.NY; y0 += cy {
			ny := min(cy, vol.NY-y0)
			for x0 := 0; x0 < vol.NX; x0 += cx {
				nx := min(cx, vol.NX-x0)
				chunks = append(chunks, Chunk{x0, y0, z0, Dims{nx, ny, nz}})
			}
		}
	}
	return chunks
}

func clampChunk(c, n int) int {
	if c <= 0 || c > n {
		return n
	}
	return c
}
