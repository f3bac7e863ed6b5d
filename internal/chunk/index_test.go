package chunk

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// goldenContainers are the frozen fixtures of every container version.
var goldenContainers = []string{
	"golden_pwe_24x17x9.sperr",          // v1
	"golden_pwe_24x17x9_v2.sperr",       // v2
	"golden_adaptive_48x32x32_v3.sperr", // v3
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// countingReaderAt records every range read through it.
type countingReaderAt struct {
	r      *bytes.Reader
	mu     sync.Mutex
	ranges [][2]int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.ranges = append(c.ranges, [2]int64{off, off + int64(len(p))})
	c.mu.Unlock()
	return c.r.ReadAt(p, off)
}

func (c *countingReaderAt) total() int64 {
	var n int64
	for _, rg := range c.ranges {
		n += rg[1] - rg[0]
	}
	return n
}

// TestDecodeChunkMatchesRegion: every chunk decoded alone through the
// index reader is bit-identical to a region decode of exactly its box,
// on every container version.
func TestDecodeChunkMatchesRegion(t *testing.T) {
	for _, name := range goldenContainers {
		stream := readGolden(t, name)
		x, err := ReadIndex(bytes.NewReader(stream), int64(len(stream)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, ch := range x.chunks {
			got, err := x.DecodeChunk(i)
			if err != nil {
				t.Fatalf("%s chunk %d: %v", name, i, err)
			}
			want, err := DecompressRegion(stream, ch.X0, ch.Y0, ch.Z0, ch.Dims, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Data) {
				t.Fatalf("%s chunk %d: %d samples, want %d", name, i, len(got), len(want.Data))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want.Data[k]) {
					t.Fatalf("%s chunk %d sample %d differs", name, i, k)
				}
			}
		}
		if _, err := x.DecodeChunk(len(x.chunks)); err == nil {
			t.Fatalf("%s: out-of-range chunk decoded", name)
		}
	}
}

// TestDecodeChunkReadsOnlyItsFrame: opening the index and decoding one
// chunk of a v2/v3 container reads the fixed header, the tail, the
// footer and that chunk's payload — nothing else.
func TestDecodeChunkReadsOnlyItsFrame(t *testing.T) {
	for _, name := range goldenContainers[1:] {
		stream := readGolden(t, name)
		size := int64(len(stream))
		ref, err := parseContainer(stream)
		if err != nil {
			t.Fatal(err)
		}
		footer := int64(indexSizeFor(ref.version, len(ref.chunks)))
		for k, e := range ref.entries {
			cr := &countingReaderAt{r: bytes.NewReader(stream)}
			x, err := ReadIndex(cr, size)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.DecodeChunk(k); err != nil {
				t.Fatalf("%s chunk %d: %v", name, k, err)
			}
			payload := [2]int64{int64(e.offset) + 4, int64(e.offset) + 4 + int64(e.length)}
			if max := int64(fixedHeaderSize+tailSize) + footer + payload[1] - payload[0]; cr.total() > max {
				t.Fatalf("%s chunk %d: read %d bytes, want at most %d", name, k, cr.total(), max)
			}
			for _, rg := range cr.ranges {
				inHeader := rg[1] <= fixedHeaderSize
				inFooter := rg[0] >= size-footer && rg[1] <= size
				inFrame := rg[0] >= payload[0] && rg[1] <= payload[1]
				if !inHeader && !inFooter && !inFrame {
					t.Fatalf("%s chunk %d: read [%d, %d) outside header, footer and its payload %v",
						name, k, rg[0], rg[1], payload)
				}
			}
		}
	}
}

// TestDecodeChunkDamage: a flipped payload byte fails only its own
// chunk, as ErrCorrupt; a flipped footer byte fails the index read.
func TestDecodeChunkDamage(t *testing.T) {
	for _, name := range goldenContainers[1:] {
		stream := readGolden(t, name)
		ref, err := parseContainer(stream)
		if err != nil {
			t.Fatal(err)
		}
		const k = 1
		mut := bytes.Clone(stream)
		e := ref.entries[k]
		mut[e.offset+4+uint64(e.length)/2] ^= 0x40
		x, err := ReadIndex(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			t.Fatalf("%s: payload damage failed the index read: %v", name, err)
		}
		if _, err := x.DecodeChunk(k); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: damaged chunk err = %v, want ErrCorrupt", name, err)
		}
		for i := range ref.chunks {
			if i == k {
				continue
			}
			if _, err := x.DecodeChunk(i); err != nil {
				t.Fatalf("%s: intact chunk %d: %v", name, i, err)
			}
		}

		mut = bytes.Clone(stream)
		mut[len(mut)-tailSize-aggregateSize-1] ^= 0x01 // last index byte before the aggregates
		if _, err := ReadIndex(bytes.NewReader(mut), int64(len(mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: footer damage err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestReadIndexV1Truncated: the v1 prefix walk rejects a stream cut
// inside the frames as ErrCorrupt, whatever the cut point.
func TestReadIndexV1Truncated(t *testing.T) {
	stream := readGolden(t, goldenContainers[0])
	for cut := fixedHeaderSize; cut < len(stream); cut += 97 {
		_, err := ReadIndex(bytes.NewReader(stream[:cut]), int64(cut))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}
