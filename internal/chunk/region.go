package chunk

import (
	"fmt"

	"sperr/internal/grid"
)

// DecompressRegion reconstructs only the axis-aligned box of size dims
// anchored at (x0, y0, z0), decoding just the chunks that intersect it.
// This is the random-access payoff of the chunked design (Section III-D):
// serving a small cutout of a large archived volume — the access pattern
// of the community databases that motivate the paper — touches a fraction
// of the stream.
func DecompressRegion(stream []byte, x0, y0, z0 int, dims grid.Dims, workers int) (*grid.Volume, error) {
	vol, _, err := decompressRegionCounted(stream, x0, y0, z0, dims, workers)
	return vol, err
}

// decompressRegionCounted is DecompressRegion also reporting how many
// chunks it decoded — the access-cost witness the region tests assert on.
// On v2 containers the frames are located via the index footer, so the
// bytes of non-intersecting frames are never touched (not even for
// checksumming; frame CRCs verify lazily at payload access).
func decompressRegionCounted(stream []byte, x0, y0, z0 int, dims grid.Dims, workers int) (*grid.Volume, int, error) {
	if !dims.Valid() {
		return nil, 0, fmt.Errorf("chunk: invalid region dims %v", dims)
	}
	c, err := parseContainer(stream)
	if err != nil {
		return nil, 0, err
	}
	if x0 < 0 || y0 < 0 || z0 < 0 ||
		x0+dims.NX > c.volDims.NX || y0+dims.NY > c.volDims.NY || z0+dims.NZ > c.volDims.NZ {
		return nil, 0, fmt.Errorf("chunk: region %v@(%d,%d,%d) exceeds volume %v",
			dims, x0, y0, z0, c.volDims)
	}
	// Select intersecting chunks.
	var hit []int
	for i, ch := range c.chunks {
		if ch.X0 < x0+dims.NX && ch.X0+ch.Dims.NX > x0 &&
			ch.Y0 < y0+dims.NY && ch.Y0+ch.Dims.NY > y0 &&
			ch.Z0 < z0+dims.NZ && ch.Z0+ch.Dims.NZ > z0 {
			hit = append(hit, i)
		}
	}
	out := grid.NewVolume(dims)
	err = forEachChunkScratch(len(hit), workers, func(k int, ws *workerScratch) error {
		i := hit[k]
		ch := c.chunks[i]
		data, err := c.decodeChunk(i, ws.codec, 1)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		// Intersection of the chunk box with the region, in volume coords.
		ix0, ix1 := maxInt(ch.X0, x0), minInt(ch.X0+ch.Dims.NX, x0+dims.NX)
		iy0, iy1 := maxInt(ch.Y0, y0), minInt(ch.Y0+ch.Dims.NY, y0+dims.NY)
		iz0, iz1 := maxInt(ch.Z0, z0), minInt(ch.Z0+ch.Dims.NZ, z0+dims.NZ)
		for z := iz0; z < iz1; z++ {
			for y := iy0; y < iy1; y++ {
				srcOff := ch.Dims.Index(ix0-ch.X0, y-ch.Y0, z-ch.Z0)
				dstOff := dims.Index(ix0-x0, y-y0, z-z0)
				copy(out.Data[dstOff:dstOff+(ix1-ix0)], data[srcOff:srcOff+(ix1-ix0)])
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(hit), nil
}

// TouchedChunks reports how many chunks a region decode would visit (for
// access-cost accounting).
func TouchedChunks(stream []byte, x0, y0, z0 int, dims grid.Dims) (touched, total int, err error) {
	c, err := parseContainer(stream)
	if err != nil {
		return 0, 0, err
	}
	for _, ch := range c.chunks {
		if ch.X0 < x0+dims.NX && ch.X0+ch.Dims.NX > x0 &&
			ch.Y0 < y0+dims.NY && ch.Y0+ch.Dims.NY > y0 &&
			ch.Z0 < z0+dims.NZ && ch.Z0+ch.Dims.NZ > z0 {
			touched++
		}
	}
	return touched, len(c.chunks), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
