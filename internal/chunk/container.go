package chunk

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// Index is a container's validated frame table (format v1, v2, or v3),
// read through an io.ReaderAt. Opening one reads the fixed header and,
// for v2+, the tail and index footer — for v1, which has no footer, the
// chunks' 4-byte length prefixes — and never a frame payload, so a
// random-access reader pays only for the frames it then decodes. It is
// the one container parser: parseContainer is this reader over a byte
// slice.
type Index struct {
	r         io.ReaderAt
	version   int
	volDims   grid.Dims
	chunkDims grid.Dims
	chunks    []grid.Chunk
	entries   []indexEntry    // one frame per chunk; crc is set on v2+ only
	codecs    []codec.CodecID // v3: per-chunk codec map from the footer
	agg       aggregates      // v2+: the footer's aggregates
}

// container is an in-memory container: its index plus each chunk's
// payload aliasing the stream. For v2+ the payload checksums are
// deferred to payload(), so a consumer checksums only the frames it
// opens.
type container struct {
	*Index
	payloads [][]byte // one compressed stream per chunk, aliasing the input
}

// MaxDecodePoints, when positive, bounds the number of points a container
// may declare before any decode-side allocation happens — a guard when
// feeding untrusted streams to Decompress (the fuzz harness sets it).
// Zero means unlimited. Set it once, before concurrent use.
var MaxDecodePoints int

// mulOK returns a*b and whether the product fits an int without overflow.
// All operands are non-negative.
func mulOK(a, b int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b {
		return 0, false
	}
	return p, true
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// validateGeometry checks a container's declared geometry arithmetically
// before any geometry-sized allocation happens: a corrupt header must not
// be able to provoke a huge or overflowing make(). It returns the chunk
// split on success.
func validateGeometry(volDims, chunkDims grid.Dims, nchunks int) ([]grid.Chunk, error) {
	if !volDims.Valid() || !chunkDims.Valid() {
		return nil, fmt.Errorf("%w: invalid dims %v / %v", ErrCorrupt, volDims, chunkDims)
	}
	xy, ok1 := mulOK(volDims.NX, volDims.NY)
	points, ok2 := mulOK(xy, volDims.NZ)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: volume dims %v overflow", ErrCorrupt, volDims)
	}
	if MaxDecodePoints > 0 && points > MaxDecodePoints {
		return nil, fmt.Errorf("%w: volume of %d points exceeds decode cap %d",
			ErrCorrupt, points, MaxDecodePoints)
	}
	cxy, ok1 := mulOK(ceilDiv(volDims.NX, chunkDims.NX), ceilDiv(volDims.NY, chunkDims.NY))
	want, ok2 := mulOK(cxy, ceilDiv(volDims.NZ, chunkDims.NZ))
	if !ok1 || !ok2 || want != nchunks {
		return nil, fmt.Errorf("%w: chunk count %d does not match geometry (%d)",
			ErrCorrupt, nchunks, want)
	}
	return grid.SplitChunks(volDims, chunkDims), nil
}

// parseFixedHeader decodes and validates the 36-byte fixed header shared
// by every version, returning the declared geometry and the chunk split.
// It is the common entry of the index reader (ReadIndex), the streaming
// Reader and the salvage path, which must keep going on streams whose
// frame region is damaged.
func parseFixedHeader(stream []byte) (version int, volDims, chunkDims grid.Dims, chunks []grid.Chunk, err error) {
	if len(stream) < fixedHeaderSize {
		return 0, volDims, chunkDims, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	switch {
	case [8]byte(stream[:8]) == magicV1:
		version = 1
	case [8]byte(stream[:8]) == magicV2:
		version = 2
	case [8]byte(stream[:8]) == magicV3:
		version = 3
	default:
		return 0, volDims, chunkDims, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(stream[off:])) }
	volDims = grid.Dims{NX: u32(8), NY: u32(12), NZ: u32(16)}
	chunkDims = grid.Dims{NX: u32(20), NY: u32(24), NZ: u32(28)}
	chunks, err = validateGeometry(volDims, chunkDims, u32(32))
	if err != nil {
		return 0, volDims, chunkDims, nil, err
	}
	return version, volDims, chunkDims, chunks, nil
}

// ReadIndex reads and validates the index of a container of size bytes
// through r, touching no frame payload. Every check of the strict parser
// runs here: the chunk-count capacity bound, the geometry and decode cap,
// and for v2+ the footer's checksum, frame contiguity and v3 codec map.
func ReadIndex(r io.ReaderAt, size int64) (*Index, error) {
	if size < fixedHeaderSize {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	var hdr [fixedHeaderSize]byte
	if err := readAt(r, hdr[:], 0); err != nil {
		return nil, err
	}
	// Every chunk costs at least a 4-byte length prefix, so the declared
	// chunk count is bounded by the bytes that remain — checked before
	// validateGeometry's products so a lying count cannot size the chunk
	// slice either.
	nchunks := int(binary.LittleEndian.Uint32(hdr[32:]))
	if int64(nchunks) > (size-fixedHeaderSize)/4 {
		return nil, fmt.Errorf("%w: chunk count %d exceeds stream capacity", ErrCorrupt, nchunks)
	}
	version, volDims, chunkDims, chunks, err := parseFixedHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	x := &Index{r: r, version: version, volDims: volDims, chunkDims: chunkDims, chunks: chunks}
	if version >= 2 {
		// The footer locates the frames by its entries, so this is
		// O(nchunks) in the footer and reads no frame bytes.
		if x.entries, x.codecs, x.agg, err = readFooter(r, size, version, nchunks); err != nil {
			return nil, err
		}
		return x, nil
	}
	x.entries = make([]indexEntry, nchunks)
	off := int64(fixedHeaderSize)
	var prefix [4]byte
	for i := range x.entries {
		if off+4 > size {
			return nil, fmt.Errorf("%w: truncated at chunk %d", ErrCorrupt, i)
		}
		if err := readAt(r, prefix[:], off); err != nil {
			return nil, err
		}
		n := int64(binary.LittleEndian.Uint32(prefix[:]))
		if off+4+n > size {
			return nil, fmt.Errorf("%w: chunk %d payload truncated", ErrCorrupt, i)
		}
		x.entries[i] = indexEntry{offset: uint64(off), length: uint32(n)}
		off += 4 + n
	}
	return x, nil
}

// readAt fills p from r at off. Callers bound off+len(p) by the
// container size first, so a short read is a container that is shorter
// than it claims.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		return fmt.Errorf("%w: %d bytes at offset %d truncated", ErrCorrupt, len(p), off)
	}
	return fmt.Errorf("chunk: read %d bytes at offset %d: %w", len(p), off, err)
}

// DecodeChunk decodes chunk i alone: it reads only that frame's payload,
// verifies it against the index entry's checksum (v2+) and the footer's
// codec map (v3), and decodes it with a pooled arena. The returned
// samples, in the chunk's own x-fastest order, belong to the caller.
func (x *Index) DecodeChunk(i int) ([]float64, error) {
	ws := scratchPool.Get().(*workerScratch)
	defer scratchPool.Put(ws)
	data, err := x.decodeFrame(i, ws)
	if err != nil {
		return nil, err
	}
	// data aliases the arena, which goes back to the pool on return.
	return append([]float64(nil), data...), nil
}

// DecodeEach decodes the listed chunks, each from its own frame as
// DecodeChunk does, on up to workers goroutines (<= 0 means GOMAXPROCS)
// that each draw one pooled arena, and hands fn every chunk's samples in
// the chunk's own x-fastest order. fn may run concurrently; data aliases
// the worker's arena and is valid only until fn returns. ctx is checked
// before each chunk, and the first error in list order is returned. It
// is the one frame decoder behind region reads, in memory
// (DecompressRegion) and on disk (the store's cache-miss pass).
func (x *Index) DecodeEach(ctx context.Context, chunks []int, workers int, fn func(i int, data []float64) error) error {
	return forEachChunkScratch(len(chunks), workers, func(k int, ws *workerScratch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := chunks[k]
		data, err := x.decodeFrame(i, ws)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		return fn(i, data)
	})
}

// decodeFrame reads chunk i's frame into the arena's frame buffer,
// verifies it and decodes it single-threaded. The result aliases ws.
func (x *Index) decodeFrame(i int, ws *workerScratch) ([]float64, error) {
	if i < 0 || i >= len(x.entries) {
		return nil, fmt.Errorf("chunk: index %d out of range [0, %d)", i, len(x.entries))
	}
	e := x.entries[i]
	if cap(ws.frame) < int(e.length) {
		ws.frame = make([]byte, e.length)
	}
	p := ws.frame[:e.length]
	if err := readAt(x.r, p, int64(e.offset)+4); err != nil {
		return nil, err
	}
	if err := x.verify(i, p); err != nil {
		return nil, err
	}
	return x.decode(i, p, ws.codec, 1)
}

// parseContainer validates and indexes an in-memory container stream
// without decoding (or, for v2+, even checksumming) any chunk payloads.
func parseContainer(stream []byte) (*container, error) {
	x, err := ReadIndex(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		return nil, err
	}
	c := &container{Index: x, payloads: make([][]byte, len(x.entries))}
	for i, e := range x.entries {
		// ReadIndex proved offset+4+length <= len(stream).
		start := e.offset + 4
		c.payloads[i] = stream[start : start+uint64(e.length)]
	}
	return c, nil
}

// payload returns chunk i's compressed stream, verifying its checksum
// first on v2+ containers. Verification happens here — at access time —
// rather than at parse time, so consumers pay only for the frames they
// actually open. On v3 the returned bytes include the leading codec tag.
func (c *container) payload(i int) ([]byte, error) {
	p := c.payloads[i]
	if err := c.verify(i, p); err != nil {
		return nil, err
	}
	return p, nil
}

// verify checks chunk i's payload against its index entry's checksum;
// v1 frames carry none.
func (x *Index) verify(i int, p []byte) error {
	if x.version >= 2 && frameCRC(p) != x.entries[i].crc {
		return fmt.Errorf("%w: chunk %d checksum mismatch", ErrCorrupt, i)
	}
	return nil
}

// decodeTaggedPayload decodes a v3 frame payload — codec tag byte plus
// backend stream — dispatching on the tag. A tag outside the registry
// fails as ErrCorrupt; it must never fall through to some backend's
// decoder.
func decodeTaggedPayload(payload []byte, dims grid.Dims, s *codec.Scratch, threads int) ([]float64, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: empty frame payload", ErrCorrupt)
	}
	b, ok := codec.Lookup(codec.CodecID(payload[0]))
	if !ok {
		return nil, fmt.Errorf("%w: unknown codec tag %d", ErrCorrupt, payload[0])
	}
	data, err := b.Decode(payload[1:], dims, s, threads)
	if err != nil {
		// A CRC-valid frame whose tagged backend rejects the stream is
		// corruption evidence (e.g. a consistently forged tag): surface it
		// under the container's error identity, keeping the backend's too.
		return nil, fmt.Errorf("%w: codec %s: %w", ErrCorrupt, b.Name(), err)
	}
	return data, nil
}

// decode decodes chunk i's verified payload with the version-correct
// dispatch: pre-v3 payloads are SPERR streams; v3 payloads carry a codec
// tag that must also agree with the footer's codec map. The result
// aliases s.
func (x *Index) decode(i int, payload []byte, s *codec.Scratch, threads int) ([]float64, error) {
	dims := x.chunks[i].Dims
	if x.version < 3 {
		return codec.DecodeChunkScratchThreads(payload, dims, s, threads)
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: chunk %d frame empty", ErrCorrupt, i)
	}
	if codec.CodecID(payload[0]) != x.codecs[i] {
		return nil, fmt.Errorf("%w: chunk %d frame tag %d disagrees with index codec %d",
			ErrCorrupt, i, payload[0], x.codecs[i])
	}
	return decodeTaggedPayload(payload, dims, s, threads)
}

// sperrPayload returns chunk i's SPERR stream for the progressive-access
// paths (partial and low-resolution decode), which are SPERR-specific: on
// a v3 container the chunk must be SPERR-coded and the tag is stripped.
func (c *container) sperrPayload(i int) ([]byte, error) {
	payload, err := c.payload(i)
	if err != nil {
		return nil, err
	}
	if c.version < 3 {
		return payload, nil
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: chunk %d frame empty", ErrCorrupt, i)
	}
	if id := codec.CodecID(payload[0]); id != codec.CodecSPERR {
		return nil, fmt.Errorf("chunk: progressive access requires SPERR-coded chunks; chunk %d is %s", i, id)
	}
	return payload[1:], nil
}
