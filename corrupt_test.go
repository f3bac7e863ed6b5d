package sperr

import (
	"encoding/binary"
	"strings"
	"testing"

	"sperr/internal/chunk"
)

// Deterministic adversarial-stream regressions backing the fuzz tier:
// every one of these inputs once mapped to a panic or an unbounded
// allocation class, and must now fail with a clean error.

// header builds a container header with the given seven u32 fields.
func containerHeader(fields ...uint32) []byte {
	return containerHeaderMagic("SPRRGO01", fields...)
}

func containerHeaderMagic(magic string, fields ...uint32) []byte {
	out := []byte(magic)
	for _, v := range fields {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

func TestCorruptStreamsErrorNotPanic(t *testing.T) {
	valid, _, err := CompressPWE(demoField(20, 13, 9, 5), [3]int{20, 13, 9}, 1e-3,
		&Options{ChunkDims: [3]int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": []byte("SPRRGO0"),
		"bad magic":    append([]byte("NOTSPERR"), valid[8:]...),
		// 0xFFFFFFF0^3 points: the dims product overflows int64.
		"overflowing dims": append(containerHeader(0xFFFFFFF0, 0xFFFFFFF0, 0xFFFFFFF0, 1, 1, 1, 1), 0, 0, 0, 0),
		// A large but non-overflowing volume must hit the decode cap.
		"capped volume": append(containerHeader(4096, 4096, 1, 4096, 4096, 1, 1), 0, 0, 0, 0),
		// Claimed chunk count cannot fit in the remaining bytes.
		"chunk count beyond stream": append(containerHeader(16, 16, 16, 8, 8, 8, 0xFFFFFF), 0, 0, 0, 0),
		// Chunk count disagrees with the declared geometry.
		"wrong chunk count":     append(containerHeader(16, 16, 16, 8, 8, 8, 3), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated first frame": valid[:8+4*7+2],
		"truncated payload":     valid[:len(valid)-3],
		// v2-specific header damage: right magic, hostile fields.
		"v2 bare header":       append(containerHeaderMagic("SPRRGO02", 16, 16, 16, 8, 8, 8, 8), 0, 0, 0, 0),
		"v2 overflowing dims":  append(containerHeaderMagic("SPRRGO02", 0xFFFFFFF0, 0xFFFFFFF0, 0xFFFFFFF0, 1, 1, 1, 1), 0, 0, 0, 0),
		"v2 wrong chunk count": append(containerHeaderMagic("SPRRGO02", 16, 16, 16, 8, 8, 8, 3), make([]byte, 256)...),
		"v2 zeroed tail":       append(append([]byte(nil), valid[:len(valid)-20]...), make([]byte, 20)...),
	}
	old := chunk.MaxDecodePoints
	chunk.MaxDecodePoints = 1 << 22
	defer func() { chunk.MaxDecodePoints = old }()
	for name, in := range cases {
		if _, _, err := Decompress(in); err == nil {
			t.Errorf("%s: Decompress accepted corrupt input", name)
		}
		if _, err := Describe(in); err == nil {
			t.Errorf("%s: Describe accepted corrupt input", name)
		}
		if _, _, err := DecompressPartial(in, 0.5); err == nil {
			t.Errorf("%s: DecompressPartial accepted corrupt input", name)
		}
	}
}

// Bit-level damage inside chunk payloads must never panic: it either
// fails the lossless/codec validation or decodes to garbage of the
// declared shape.
func TestBitFlippedPayloadsNoPanic(t *testing.T) {
	valid, _, err := CompressPWE(demoField(20, 13, 9, 5), [3]int{20, 13, 9}, 1e-3,
		&Options{ChunkDims: [3]int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(valid); pos += 3 {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= mask
			rec, dims, err := Decompress(mut)
			if err == nil && len(rec) != dims[0]*dims[1]*dims[2] {
				t.Fatalf("flip @%d/%#x: shape mismatch %d vs %v", pos, mask, len(rec), dims)
			}
			if _, err := Describe(mut); err != nil &&
				strings.Contains(err.Error(), "panic") {
				t.Fatalf("flip @%d/%#x: %v", pos, mask, err)
			}
		}
	}
}
