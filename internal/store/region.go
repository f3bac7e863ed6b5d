package store

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"sperr"
)

// RegionStats describes how one Region call was served.
type RegionStats struct {
	// Chunks is the number of chunks intersecting the cutout; Hits of
	// them came from the decoded cache, Misses had to be decoded.
	Chunks, Hits, Misses int
	// Decoded is the number of chunk frames actually decoded — zero on a
	// full cache hit.
	Decoded int
	// Samples is the cutout's sample count.
	Samples int
}

// Cached reports a fully cache-served read (zero decode work).
func (st *RegionStats) Cached() bool { return st.Misses == 0 }

// RegionPlan is the admission probe for a region read: what the cutout
// intersects and what is not resident right now. The plan is advisory —
// the cache can change between planning and reading — but the decode
// arena bound it implies (workers x MaxChunkSamples) holds regardless,
// because Region never decodes more than that many chunks at once.
type RegionPlan struct {
	Chunks          int
	MissingChunks   int
	MissingSamples  int64
	MaxChunkSamples int64
}

// intersects reports whether chunk box g overlaps the cutout.
func intersects(g ChunkGeom, origin, dims [3]int) bool {
	for a := 0; a < 3; a++ {
		if g.Origin[a] >= origin[a]+dims[a] || g.Origin[a]+g.Dims[a] <= origin[a] {
			return false
		}
	}
	return true
}

// checkRegion validates a cutout against a volume's extent.
func checkRegion(m *Meta, origin, dims [3]int) error {
	for a := 0; a < 3; a++ {
		if dims[a] <= 0 {
			return fmt.Errorf("store: region dims must be positive, got %v", dims)
		}
		if origin[a] < 0 || origin[a]+dims[a] > m.Dims[a] {
			return fmt.Errorf("store: region %v@%v exceeds volume %v", dims, origin, m.Dims)
		}
	}
	return nil
}

// PlanRegion reports what serving the cutout would take right now:
// intersecting chunks, how many are not cached, and the largest chunk's
// sample count (the per-worker decode arena unit).
func (s *Store) PlanRegion(id string, origin, dims [3]int) (*RegionPlan, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, ErrNotFound
	}
	if err := checkRegion(m, origin, dims); err != nil {
		return nil, err
	}
	plan := &RegionPlan{}
	for i, g := range m.Chunks {
		if !intersects(g, origin, dims) {
			continue
		}
		plan.Chunks++
		n := int64(g.Dims[0]) * int64(g.Dims[1]) * int64(g.Dims[2])
		if n > plan.MaxChunkSamples {
			plan.MaxChunkSamples = n
		}
		if !s.cache.Contains(chunkKey{ID: id, Chunk: i}) {
			plan.MissingChunks++
			plan.MissingSamples += n
		}
	}
	return plan, nil
}

// Region serves the cutout of extent dims anchored at origin from the
// two-tier store: chunks resident in the decoded cache are copied out
// with zero decode work, and only the missing intersecting frames are
// read from the blob and decoded (each located through the container's
// index), in parallel up to workers, then offered to the cache for the
// next reader.
// The result is bit-identical to sperr.DecompressRegion on the stored
// container — the cache is a pure memoization.
func (s *Store) Region(ctx context.Context, id string, origin, dims [3]int, workers int) ([]float64, *RegionStats, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	if err := checkRegion(m, origin, dims); err != nil {
		return nil, nil, err
	}

	n := dims[0] * dims[1] * dims[2]
	out := make([]float64, n)
	st := &RegionStats{Samples: n}

	// Pass 1: serve what the decoded tier already holds.
	var missIdx []int
	for i, g := range m.Chunks {
		if !intersects(g, origin, dims) {
			continue
		}
		st.Chunks++
		if e := s.cache.Get(chunkKey{ID: id, Chunk: i}); e != nil {
			copyIntersect(out, origin, dims, e.origin, e.dims, e.data)
			st.Hits++
		} else {
			missIdx = append(missIdx, i)
			st.Misses++
		}
	}
	if s.opts.Hooks.OnHit != nil && st.Hits > 0 {
		s.opts.Hooks.OnHit(st.Hits)
	}
	if s.opts.Hooks.OnMiss != nil && st.Misses > 0 {
		s.opts.Hooks.OnMiss(st.Misses)
	}
	if len(missIdx) == 0 {
		return out, st, nil
	}

	// Pass 2: decode only the missing frames, bounded by workers. The
	// index is read from the same descriptor the frames are, so a merge
	// renaming a new blob into place mid-read cannot mix two containers:
	// the open file stays one consistent snapshot.
	f, err := os.Open(s.blobPath(id))
	if err != nil {
		return nil, nil, fmt.Errorf("store: blob for %s: %w", shortID(id), err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: blob for %s: %w", shortID(id), err)
	}
	ix, err := sperr.ReadFrameIndex(f, fi.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("store: blob for %s: %w", shortID(id), err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(missIdx) {
		workers = len(missIdx)
	}
	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, workers)
		errMu   sync.Mutex
		first   error
		decoded atomic.Int64
	)
	setErr := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	for _, ci := range missIdx {
		if ctx != nil && ctx.Err() != nil {
			setErr(ctx.Err())
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(ci int) {
			defer func() { <-sem; wg.Done() }()
			g := m.Chunks[ci]
			data, err := ix.DecodeChunk(ci)
			if err == nil && len(data) != g.Dims[0]*g.Dims[1]*g.Dims[2] {
				err = fmt.Errorf("%w: decoded %d samples for a %v box", sperr.ErrCorrupt, len(data), g.Dims)
			}
			if err != nil {
				setErr(fmt.Errorf("store: chunk %d of %s: %w", ci, shortID(id), err))
				return
			}
			s.decodes.Add(1)
			decoded.Add(1)
			if s.opts.Hooks.OnDecode != nil {
				s.opts.Hooks.OnDecode(1)
			}
			// Chunks are disjoint, so concurrent copies write disjoint
			// ranges of out.
			copyIntersect(out, origin, dims, g.Origin, g.Dims, data)
			s.cache.Insert(&slabEntry{
				key:    chunkKey{ID: id, Chunk: ci},
				origin: g.Origin,
				dims:   g.Dims,
				data:   data,
			})
		}(ci)
	}
	wg.Wait()
	st.Decoded = int(decoded.Load())
	if first != nil {
		return nil, nil, first
	}
	return out, st, nil
}

// copyIntersect copies the overlap of the chunk box (cOrigin, cDims) into
// the destination cutout (dOrigin, dDims), both in volume coordinates.
func copyIntersect(dst []float64, dOrigin, dDims [3]int, cOrigin, cDims [3]int, src []float64) {
	x0, x1 := maxInt(cOrigin[0], dOrigin[0]), minInt(cOrigin[0]+cDims[0], dOrigin[0]+dDims[0])
	y0, y1 := maxInt(cOrigin[1], dOrigin[1]), minInt(cOrigin[1]+cDims[1], dOrigin[1]+dDims[1])
	z0, z1 := maxInt(cOrigin[2], dOrigin[2]), minInt(cOrigin[2]+cDims[2], dOrigin[2]+dDims[2])
	if x1 <= x0 || y1 <= y0 || z1 <= z0 {
		return
	}
	for z := z0; z < z1; z++ {
		for y := y0; y < y1; y++ {
			srcOff := ((z-cOrigin[2])*cDims[1]+(y-cOrigin[1]))*cDims[0] + (x0 - cOrigin[0])
			dstOff := ((z-dOrigin[2])*dDims[1]+(y-dOrigin[1]))*dDims[0] + (x0 - dOrigin[0])
			copy(dst[dstOff:dstOff+(x1-x0)], src[srcOff:srcOff+(x1-x0)])
		}
	}
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
