package chunk

import (
	"bytes"
	"context"
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
// checksumming).
func decompressRegionCounted(stream []byte, x0, y0, z0 int, dims grid.Dims, workers int) (*grid.Volume, int, error) {
	x, err := ReadIndex(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		return nil, 0, err
	}
	region := grid.Box{Origin: [3]int{x0, y0, z0}, Dims: dims.Extent()}
	if !region.Within(x.volDims.Extent()) {
		return nil, 0, fmt.Errorf("chunk: region %v@(%d,%d,%d) outside volume %v",
			dims, x0, y0, z0, x.volDims)
	}
	var hit []int
	for i, ch := range x.chunks {
		if _, ok := region.Intersect(ch.Box()); ok {
			hit = append(hit, i)
		}
	}
	out := grid.NewVolume(dims)
	// Chunks are disjoint, so concurrent copies write disjoint ranges.
	err = x.DecodeEach(context.TODO(), hit, workers, func(i int, data []float64) error {
		grid.CopyBox(out.Data, region, data, x.chunks[i].Box())
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(hit), nil
}
