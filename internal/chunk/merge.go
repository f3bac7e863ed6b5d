package chunk

// Shard merging for the replicated cluster layer: when a peer receives a
// second shard of a volume it already holds — a replicated re-ingest, an
// anti-entropy repair response, or the fan-in of a rejoining node — the
// two shards must converge to one container holding the union of their
// real frames. Merging is frame-granular and byte-exact: a frame is
// taken verbatim from whichever input carries it intact, so a merged
// chunk decodes bit-identically to the original container no matter how
// many merges it has been through. Damage never survives a merge with a
// clean replica — a frame that fails its checksum loses to an intact
// copy of the same chunk, which is exactly the self-healing property the
// scrubber relies on.

import (
	"encoding/binary"
	"fmt"
)

// frameState classifies one chunk's frame within a shard being merged.
type frameState int

const (
	frameStub    frameState = iota // deliberate slicing stub
	frameIntact                    // real payload, checksum verified
	frameDamaged                   // real-length payload failing its checksum
)

// classifyFrame decides what chunk i's frame contributes to a merge.
func classifyFrame(c *container, i int) frameState {
	p := c.payloads[i]
	if len(p) <= StubFrameMaxLen {
		return frameStub
	}
	if frameCRC(p) != c.entries[i].crc {
		return frameDamaged
	}
	return frameIntact
}

// MergeShards combines two shards of the same volume into one container
// holding, for each chunk, the first intact frame found in (a, b) order;
// chunks intact in neither input stay (or become) stubs. Both inputs
// must be v2+ containers describing the same geometry, version, and
// codec map — shards of different volumes, or of the same volume under
// different contracts, refuse to merge. Merging a shard with itself, or
// with a subset of itself, reproduces it byte for byte.
//
// A damaged frame (real length, bad checksum) is tolerated in either
// input: it simply loses to an intact copy from the other side, and
// degrades to a stub when no intact copy exists — the chunk then leaves
// the owned set rather than poisoning it, and the anti-entropy scrubber
// re-fetches it from a replica that still has it.
func MergeShards(a, b []byte) ([]byte, error) {
	ca, err := parseContainer(a)
	if err != nil {
		return nil, fmt.Errorf("merge: first shard: %w", err)
	}
	cb, err := parseContainer(b)
	if err != nil {
		return nil, fmt.Errorf("merge: second shard: %w", err)
	}
	if ca.version < 2 || cb.version < 2 {
		return nil, fmt.Errorf("chunk: cannot merge v1 containers (no index footer)")
	}
	if ca.version != cb.version || ca.volDims != cb.volDims ||
		ca.chunkDims != cb.chunkDims || len(ca.chunks) != len(cb.chunks) {
		return nil, fmt.Errorf("%w: shards describe different volumes (v%d %v/%v vs v%d %v/%v)",
			ErrCorrupt, ca.version, ca.volDims, ca.chunkDims, cb.version, cb.volDims, cb.chunkDims)
	}
	for i := range ca.codecs {
		if ca.codecs[i] != cb.codecs[i] {
			return nil, fmt.Errorf("%w: shards disagree on chunk %d codec (%d vs %d)",
				ErrCorrupt, i, ca.codecs[i], cb.codecs[i])
		}
	}

	magic := magicV2
	if ca.version >= 3 {
		magic = magicV3
	}
	// Pick each chunk's source, then size and build exactly like SliceShard.
	pick := make([]*container, len(ca.chunks))
	for i := range ca.chunks {
		switch {
		case classifyFrame(ca, i) == frameIntact:
			pick[i] = ca
		case classifyFrame(cb, i) == frameIntact:
			pick[i] = cb
		default:
			pick[i] = nil // stub
		}
	}
	size := fixedHeaderSize + indexSizeFor(ca.version, len(ca.chunks))
	for i := range ca.chunks {
		size += frameOverheadV2
		if pick[i] != nil {
			size += len(pick[i].payloads[i])
		} else if ca.version >= 3 {
			size += StubFrameMaxLen
		}
	}
	out := appendFixedHeader(make([]byte, 0, size), magic, ca.volDims, ca.chunkDims, len(ca.chunks))
	entries := make([]indexEntry, len(ca.chunks))
	for i := range ca.chunks {
		var payload []byte
		var crc uint32
		if src := pick[i]; src != nil {
			payload = src.payloads[i]
			crc = src.entries[i].crc
		} else {
			// The codec map survives the footer round trip, so a v3 stub can
			// always be synthesized from it even when both inputs' frames for
			// this chunk are damaged beyond carrying a trustworthy tag byte.
			if ca.version >= 3 {
				payload = []byte{byte(ca.codecs[i])}
			}
			crc = frameCRC(payload)
		}
		entries[i] = indexEntry{offset: uint64(len(out)), length: uint32(len(payload)), crc: crc}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc)
	}
	return appendIndex(out, ca.version, entries, ca.codecs, ca.agg, uint64(len(out))), nil
}

// OwnedChunks scans a v2+ container and returns the sorted indices of
// the chunks whose frames are real and intact — the shard's owned set as
// evidenced by the bytes themselves, not a manifest. Damaged frames and
// stubs are both excluded.
func OwnedChunks(shard []byte) ([]int, error) {
	c, err := parseContainer(shard)
	if err != nil {
		return nil, err
	}
	if c.version < 2 {
		return nil, fmt.Errorf("chunk: v1 containers carry no ownership evidence")
	}
	owned := make([]int, 0, len(c.chunks))
	for i := range c.chunks {
		if classifyFrame(c, i) == frameIntact {
			owned = append(owned, i)
		}
	}
	return owned, nil
}
