package store

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"

	"sperr"
	"sperr/internal/grid"
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

// regionBox validates a cutout against a volume's extent and returns
// its box.
func regionBox(m *Meta, origin, dims [3]int) (grid.Box, error) {
	b := grid.Box{Origin: origin, Dims: dims}
	if !b.Within(m.Dims) {
		return b, fmt.Errorf("store: region %v@%v outside volume %v", dims, origin, m.Dims)
	}
	return b, nil
}

// PlanRegion reports what serving the cutout would take right now:
// intersecting chunks, how many are not cached, and the largest chunk's
// sample count (the per-worker decode arena unit).
func (s *Store) PlanRegion(id string, origin, dims [3]int) (*RegionPlan, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, ErrNotFound
	}
	region, err := regionBox(m, origin, dims)
	if err != nil {
		return nil, err
	}
	plan := &RegionPlan{}
	for i, g := range m.Chunks {
		if _, ok := region.Intersect(grid.Box(g)); !ok {
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
// read from the blob and decoded, in parallel up to workers, by the frame
// index's DecodeEach loop (the decoder behind sperr.DecompressRegion
// too), then offered to the cache for the next reader.
// The result is bit-identical to sperr.DecompressRegion on the stored
// container — the cache is a pure memoization.
func (s *Store) Region(ctx context.Context, id string, origin, dims [3]int, workers int) ([]float64, *RegionStats, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	region, err := regionBox(m, origin, dims)
	if err != nil {
		return nil, nil, err
	}

	out := make([]float64, region.Len())
	st := &RegionStats{Samples: len(out)}

	// Pass 1: serve what the decoded tier already holds.
	var missIdx []int
	for i, g := range m.Chunks {
		if _, ok := region.Intersect(grid.Box(g)); !ok {
			continue
		}
		st.Chunks++
		if e := s.cache.Get(chunkKey{ID: id, Chunk: i}); e != nil {
			grid.CopyBox(out, region, e.data, e.box)
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
	var decoded atomic.Int64
	err = ix.DecodeEach(ctx, missIdx, workers, func(ci int, data []float64) error {
		box := grid.Box(m.Chunks[ci])
		if len(data) != box.Len() {
			return fmt.Errorf("%w: decoded %d samples for a %v box", sperr.ErrCorrupt, len(data), box.Dims)
		}
		s.decodes.Add(1)
		decoded.Add(1)
		if s.opts.Hooks.OnDecode != nil {
			s.opts.Hooks.OnDecode(1)
		}
		// Chunks are disjoint, so concurrent copies write disjoint
		// ranges of out. data aliases the decode arena; the cache keeps
		// its own copy.
		grid.CopyBox(out, region, data, box)
		s.cache.Insert(&slabEntry{
			key:  chunkKey{ID: id, Chunk: ci},
			box:  box,
			data: append([]float64(nil), data...),
		})
		return nil
	})
	st.Decoded = int(decoded.Load())
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", shortID(id), err)
	}
	return out, st, nil
}
