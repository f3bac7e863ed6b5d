package chunk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// Container format v2 ("SPRRGO02") wraps the per-chunk codec streams in
// length-prefixed, checksummed frames and appends a seekable index footer,
// so that
//
//   - a sequential reader (io.Reader) can decode chunk by chunk with
//     memory bounded by the in-flight chunk set, never the volume;
//   - a random-access reader ([]byte or io.ReaderAt) can locate any
//     chunk's frame from the footer alone, paying only for the chunks a
//     region decode actually intersects; and
//   - Describe answers from the fixed header plus the footer without
//     touching any frame payload.
//
// Layout:
//
//	fixed header (36 bytes):
//	    magic "SPRRGO02" | volDims 3xu32 | chunkDims 3xu32 | nchunks u32
//	frames, one per chunk in container (z-major) order:
//	    payloadLen u32 | payload | crc32c(payload) u32
//	index footer, at indexOffset:
//	    nchunks x { frameOffset u64 | payloadLen u32 | crc32c u32 }
//	    aggregates (32 bytes):
//	        mode u8 | entropy u8 | pad[6] | tol f64 | speckBits u64 | outlierBits u64
//	    tail (20 bytes):
//	        indexCRC u32 (crc32c of entries + aggregates) | indexOffset u64 | magic "SPRRIX02"
//
// frameOffset addresses the frame's payloadLen field from the start of
// the container. Format v1 ("SPRRGO01") is the same fixed header followed
// by bare { payloadLen u32 | payload } frames with no checksums and no
// footer; it remains fully decodable.
//
// Format v3 ("SPRRGO03") carries the multi-backend container: each frame
// payload is a one-byte codec tag followed by the backend stream (the
// frame CRC covers the tag), and the footer inserts a codec map — one
// CodecID byte per chunk, mirroring the frame tags — between the index
// entries and the aggregates:
//
//	index footer v3, at indexOffset:
//	    nchunks x { frameOffset u64 | payloadLen u32 | crc32c u32 }
//	    nchunks x codec u8
//	    aggregates (32 bytes, mode may be ModeAdaptive)
//	    tail (20 bytes, magic "SPRRIX03")
//
// The map lets `sperr inspect` and Describe report the per-chunk codec
// without opening any frame, and gives readers a cross-check against the
// frame tags. Everything else is identical to v2.
var (
	magicV1  = [8]byte{'S', 'P', 'R', 'R', 'G', 'O', '0', '1'}
	magicV2  = [8]byte{'S', 'P', 'R', 'R', 'G', 'O', '0', '2'}
	magicV3  = [8]byte{'S', 'P', 'R', 'R', 'G', 'O', '0', '3'}
	magicIx  = [8]byte{'S', 'P', 'R', 'R', 'I', 'X', '0', '2'}
	magicIx3 = [8]byte{'S', 'P', 'R', 'R', 'I', 'X', '0', '3'}
)

const (
	// fixedHeaderSize covers the magic and the seven u32 geometry fields,
	// identical in v1 and v2.
	fixedHeaderSize = 8 + 4*7
	// frameOverheadV2 is the per-frame cost beyond the payload.
	frameOverheadV2 = 4 + 4
	// indexEntrySize is one footer entry: offset u64, length u32, crc u32.
	indexEntrySize = 8 + 4 + 4
	// aggregateSize is the footer's aggregate block.
	aggregateSize = 32
	// tailSize is the fixed footer tail: indexCRC u32, indexOffset u64,
	// end magic.
	tailSize = 4 + 8 + 8
)

// castagnoli is the CRC-32C polynomial table used for frame and index
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the checksum stored after each v2 frame payload and in the
// matching index entry.
func frameCRC(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// indexEntry locates one chunk's frame within the container.
type indexEntry struct {
	offset uint64 // of the frame's length prefix, from container start
	length uint32 // payload bytes (excluding prefix and trailing CRC)
	crc    uint32 // crc32c of the payload
}

// aggregates is the footer's stream-level summary: what Describe needs
// without opening any frame. All chunks of one container share the coding
// mode, so the scalars are container-wide.
type aggregates struct {
	mode        codec.Mode
	entropy     bool
	tol         float64
	speckBits   uint64
	outlierBits uint64
}

// appendFixedHeader marshals the 36-byte fixed header shared by v1 and v2.
func appendFixedHeader(dst []byte, magic [8]byte, volDims, chunkDims grid.Dims, nchunks int) []byte {
	dst = append(dst, magic[:]...)
	for _, v := range []int{volDims.NX, volDims.NY, volDims.NZ,
		chunkDims.NX, chunkDims.NY, chunkDims.NZ, nchunks} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// indexMagicFor returns the footer end magic of a container version.
func indexMagicFor(version int) [8]byte {
	if version >= 3 {
		return magicIx3
	}
	return magicIx
}

// indexSizeFor returns the exact footer size of a container version: v3
// inserts the nchunks-byte codec map.
func indexSizeFor(version, nchunks int) int {
	size := nchunks*indexEntrySize + aggregateSize + tailSize
	if version >= 3 {
		size += nchunks
	}
	return size
}

// appendIndex marshals the footer (entries, v3 codec map, aggregates,
// tail) given the byte offset at which the footer will be written. codecs
// must be nil exactly when version < 3.
func appendIndex(dst []byte, version int, entries []indexEntry, codecs []codec.CodecID, agg aggregates, indexOffset uint64) []byte {
	start := len(dst)
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, e.offset)
		dst = binary.LittleEndian.AppendUint32(dst, e.length)
		dst = binary.LittleEndian.AppendUint32(dst, e.crc)
	}
	if version >= 3 {
		for _, id := range codecs {
			dst = append(dst, byte(id))
		}
	}
	var ab [aggregateSize]byte
	ab[0] = byte(agg.mode)
	if agg.entropy {
		ab[1] = 1
	}
	binary.LittleEndian.PutUint64(ab[8:], math.Float64bits(agg.tol))
	binary.LittleEndian.PutUint64(ab[16:], agg.speckBits)
	binary.LittleEndian.PutUint64(ab[24:], agg.outlierBits)
	dst = append(dst, ab[:]...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = binary.LittleEndian.AppendUint64(dst, indexOffset)
	magic := indexMagicFor(version)
	dst = append(dst, magic[:]...)
	return dst
}

// parseIndex validates and decodes the footer region of a v2/v3
// container. indexBytes must span [indexOffset, end) of the stream;
// streamLen is the total container length, used to bound the entries. The
// returned codec map is non-nil exactly for v3.
func parseIndex(indexBytes []byte, version, nchunks int, indexOffset uint64, streamLen int) ([]indexEntry, []codec.CodecID, aggregates, error) {
	var agg aggregates
	want := indexSizeFor(version, nchunks)
	if len(indexBytes) != want {
		return nil, nil, agg, fmt.Errorf("%w: index footer is %d bytes, want %d", ErrCorrupt, len(indexBytes), want)
	}
	tail := indexBytes[len(indexBytes)-tailSize:]
	magic := indexMagicFor(version)
	for i := range magic {
		if tail[12+i] != magic[i] {
			return nil, nil, agg, fmt.Errorf("%w: bad index magic", ErrCorrupt)
		}
	}
	if got := binary.LittleEndian.Uint64(tail[4:12]); got != indexOffset {
		return nil, nil, agg, fmt.Errorf("%w: index offset %d, tail says %d", ErrCorrupt, indexOffset, got)
	}
	body := indexBytes[:len(indexBytes)-tailSize]
	if crc := crc32.Checksum(body, castagnoli); crc != binary.LittleEndian.Uint32(tail[:4]) {
		return nil, nil, agg, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	entries := make([]indexEntry, nchunks)
	next := uint64(fixedHeaderSize)
	for i := range entries {
		off := i * indexEntrySize
		e := indexEntry{
			offset: binary.LittleEndian.Uint64(body[off:]),
			length: binary.LittleEndian.Uint32(body[off+8:]),
			crc:    binary.LittleEndian.Uint32(body[off+12:]),
		}
		// Frames are contiguous from the fixed header to the footer; any
		// other arrangement is corruption.
		if e.offset != next {
			return nil, nil, agg, fmt.Errorf("%w: frame %d at offset %d, want %d", ErrCorrupt, i, e.offset, next)
		}
		end := e.offset + 4 + uint64(e.length) + 4
		if end > indexOffset || end > uint64(streamLen) {
			return nil, nil, agg, fmt.Errorf("%w: frame %d overruns index", ErrCorrupt, i)
		}
		entries[i] = e
		next = end
	}
	if next != indexOffset {
		return nil, nil, agg, fmt.Errorf("%w: %d frame bytes unaccounted before index", ErrCorrupt, indexOffset-next)
	}
	var codecs []codec.CodecID
	ab := body[nchunks*indexEntrySize:]
	if version >= 3 {
		codecs = make([]codec.CodecID, nchunks)
		for i := 0; i < nchunks; i++ {
			id := codec.CodecID(ab[i])
			if _, ok := codec.Lookup(id); !ok {
				return nil, nil, agg, fmt.Errorf("%w: unknown codec %d for chunk %d in index", ErrCorrupt, id, i)
			}
			codecs[i] = id
		}
		ab = ab[nchunks:]
	}
	agg.mode = codec.Mode(ab[0])
	switch agg.mode {
	case codec.ModePWE, codec.ModeBPP, codec.ModeRMSE:
	case codec.ModeAdaptive:
		if version < 3 {
			return nil, nil, agg, fmt.Errorf("%w: adaptive mode in pre-v3 index", ErrCorrupt)
		}
	default:
		return nil, nil, agg, fmt.Errorf("%w: unknown mode %d in index", ErrCorrupt, agg.mode)
	}
	agg.entropy = ab[1]&1 != 0
	agg.tol = math.Float64frombits(binary.LittleEndian.Uint64(ab[8:]))
	agg.speckBits = binary.LittleEndian.Uint64(ab[16:])
	agg.outlierBits = binary.LittleEndian.Uint64(ab[24:])
	return entries, codecs, agg, nil
}

// readFooter reads the index footer of a v2/v3 container of size bytes
// through r: the fixed tail first, then exactly the footer it points at,
// which parseIndex validates. Nothing before the footer is read.
func readFooter(r io.ReaderAt, size int64, version, nchunks int) ([]indexEntry, []codec.CodecID, aggregates, error) {
	if size < fixedHeaderSize+tailSize {
		return nil, nil, aggregates{}, fmt.Errorf("%w: stream too short for index tail", ErrCorrupt)
	}
	var tail [tailSize]byte
	if err := readAt(r, tail[:], size-tailSize); err != nil {
		return nil, nil, aggregates{}, err
	}
	magic := indexMagicFor(version)
	if [8]byte(tail[12:]) != magic {
		return nil, nil, aggregates{}, fmt.Errorf("%w: missing index magic", ErrCorrupt)
	}
	off := binary.LittleEndian.Uint64(tail[4:12])
	if off < fixedHeaderSize || off > uint64(size-tailSize) {
		return nil, nil, aggregates{}, fmt.Errorf("%w: index offset %d out of range", ErrCorrupt, off)
	}
	// Size check before the read, so a lying offset cannot size the buffer.
	if got, want := uint64(size)-off, uint64(indexSizeFor(version, nchunks)); got != want {
		return nil, nil, aggregates{}, fmt.Errorf("%w: index footer is %d bytes, want %d", ErrCorrupt, got, want)
	}
	footer := make([]byte, uint64(size)-off)
	if err := readAt(r, footer, int64(off)); err != nil {
		return nil, nil, aggregates{}, err
	}
	return parseIndex(footer, version, nchunks, off, int(size))
}
