package chunk

import (
	"sperr/internal/codec"
	"sperr/internal/grid"
)

// Info describes a container stream without decoding any data payloads —
// the "what is in this archive" inspection a downstream user needs before
// committing to a decode.
type Info struct {
	// Version is the container format version (1, 2, or 3).
	Version    int
	VolumeDims grid.Dims
	ChunkDims  grid.Dims
	NumChunks  int
	TotalBytes int

	// CodecCounts maps backend name to the number of chunks it coded,
	// straight from the v3 footer's codec map; pre-v3 containers are all
	// SPERR. Always non-nil.
	CodecCounts map[string]int

	// Mode, Tol and Entropy are the container-wide coding parameters (all
	// chunks of one container share them). SpeckBits and OutlierBits total
	// the embedded stream lengths across chunks. On v2 these come straight
	// from the index footer; on v1 they are summed from chunk headers.
	Mode        codec.Mode
	Tol         float64
	Entropy     bool
	SpeckBits   uint64
	OutlierBits uint64

	Chunks []ChunkInfo
}

// ChunkInfo describes one chunk's frame.
type ChunkInfo struct {
	Origin [3]int
	Dims   grid.Dims
	// Offset is the frame's byte offset in the container (of its length
	// prefix); CompressedBytes its payload size.
	Offset          int
	CompressedBytes int
	// Codec identifies the backend that coded this chunk (from the v3
	// footer codec map; always CodecSPERR pre-v3).
	Codec codec.CodecID
	// Meta is the chunk's coded parameters. Describing a v2 container
	// reads only the header and index footer — no frame payloads — so
	// Meta carries just the container-wide fields (Mode, Tol, Entropy);
	// per-chunk plane/pass counts and bit splits stay zero. v1 containers
	// have no footer, so Meta is parsed (bounded-prefix) from each frame
	// and is complete.
	Meta codec.StreamMeta
}

// Describe inspects a container stream. For format v2 it parses only the
// fixed header and the index footer; for v1 it additionally parses each
// chunk's 40-byte header through a bounded prefix inflate. No chunk data
// is decoded either way.
func Describe(stream []byte) (*Info, error) {
	c, err := parseContainer(stream)
	if err != nil {
		return nil, err
	}
	info := &Info{
		Version:     c.version,
		VolumeDims:  c.volDims,
		ChunkDims:   c.chunkDims,
		NumChunks:   len(c.chunks),
		TotalBytes:  len(stream),
		CodecCounts: make(map[string]int, 1),
		Chunks:      make([]ChunkInfo, 0, len(c.chunks)),
	}
	for i, ch := range c.chunks {
		ci := ChunkInfo{
			Origin:          [3]int{ch.X0, ch.Y0, ch.Z0},
			Dims:            ch.Dims,
			Offset:          int(c.entries[i].offset),
			CompressedBytes: len(c.payloads[i]),
		}
		if c.codecs != nil {
			ci.Codec = c.codecs[i]
		}
		info.CodecCounts[ci.Codec.String()]++
		if c.version >= 2 {
			ci.Meta = codec.StreamMeta{Codec: ci.Codec, Mode: c.agg.mode, Tol: c.agg.tol, Entropy: c.agg.entropy}
		} else {
			meta, err := codec.DescribeChunk(c.payloads[i])
			if err != nil {
				return nil, err
			}
			ci.Meta = *meta
			info.SpeckBits += meta.SpeckBits
			info.OutlierBits += meta.OutlierBits
			if i == 0 {
				info.Mode, info.Tol, info.Entropy = meta.Mode, meta.Tol, meta.Entropy
			}
		}
		info.Chunks = append(info.Chunks, ci)
	}
	if c.version >= 2 {
		info.Mode, info.Tol, info.Entropy = c.agg.mode, c.agg.tol, c.agg.entropy
		info.SpeckBits, info.OutlierBits = c.agg.speckBits, c.agg.outlierBits
	}
	return info, nil
}
