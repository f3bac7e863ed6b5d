package chunk

// Shard slicing for the cluster layer: a coordinator splits a container
// at frame boundaries and ships each peer only the frames of the chunks
// it owns. The shard is itself a valid container — same fixed header,
// same geometry, same footer layout — so a peer stores and serves it
// through the exact same code paths as a whole volume. Chunks the peer
// does not own become stub frames: an empty payload (v2) or the bare
// codec tag (v3), checksummed like any frame and indexed by a rewritten
// footer. Stubs parse and audit as "present but not recoverable", which
// is precisely the contract the shard store records as ownership.

import (
	"encoding/binary"
	"fmt"
)

// StubFrameMaxLen is the largest payload a shard stub frame may carry
// (the v3 codec tag byte). The shard store uses it to tell deliberate
// stubs apart from damaged frames: a non-recoverable chunk whose indexed
// payload is longer than this is corruption, not slicing.
const StubFrameMaxLen = 1

// SliceShard rebuilds a v2/v3 container keeping only the frames of the
// chunks for which keep returns true. Kept frames are copied verbatim
// (payload bytes and checksum unchanged, so their chunks later decode
// bit-identically); every other frame shrinks to a stub. The index
// footer is regenerated with the new offsets while preserving the codec
// map and the container-wide aggregates, so Describe on a shard reports
// the full volume's geometry and contract. Keeping every chunk
// reproduces the input byte for byte.
//
// v1 containers have no index footer to slice against and no frame
// checksums to carry ownership evidence; they are rejected.
func SliceShard(stream []byte, keep func(int) bool) ([]byte, error) {
	c, err := parseContainer(stream)
	if err != nil {
		return nil, err
	}
	if c.version < 2 {
		return nil, fmt.Errorf("chunk: cannot slice a v1 container (no index footer); repair upgrades it to v2")
	}
	magic := magicV2
	if c.version >= 3 {
		magic = magicV3
	}
	// Size the output: header + kept frames + stub frames + footer.
	size := fixedHeaderSize + indexSizeFor(c.version, len(c.chunks))
	for i := range c.chunks {
		size += frameOverheadV2
		if keep(i) {
			size += len(c.payloads[i])
		} else if c.version >= 3 {
			size += StubFrameMaxLen
		}
	}
	out := appendFixedHeader(make([]byte, 0, size), magic, c.volDims, c.chunkDims, len(c.chunks))
	entries := make([]indexEntry, len(c.chunks))
	for i := range c.chunks {
		var payload []byte
		var crc uint32
		if keep(i) {
			// payload() verifies the frame checksum, so a shard can never
			// launder a damaged frame into a "kept" chunk.
			payload, err = c.payload(i)
			if err != nil {
				return nil, err
			}
			crc = c.entries[i].crc
		} else {
			if c.version >= 3 {
				if len(c.payloads[i]) < 1 {
					return nil, fmt.Errorf("%w: chunk %d frame empty", ErrCorrupt, i)
				}
				// Keep the codec tag so the stub still agrees with the
				// footer's codec map.
				payload = c.payloads[i][:1]
			}
			crc = frameCRC(payload)
		}
		entries[i] = indexEntry{offset: uint64(len(out)), length: uint32(len(payload)), crc: crc}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc)
	}
	return appendIndex(out, c.version, entries, c.codecs, c.agg, uint64(len(out))), nil
}
