package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sperr"
)

// Cold reads: with the decoded tier disabled every Region call takes
// pass 2, which reads the blob's index and only the missing frames.

func readGoldenFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// payloadOffset returns where chunk k's payload starts in a v2/v3
// container: frames are contiguous after the 36-byte header, each a
// 4-byte length prefix, the payload and a 4-byte CRC.
func payloadOffset(info *sperr.StreamInfo, k int) int {
	off := 36
	for j := 0; j < k; j++ {
		off += 8 + info.FrameBytes[j]
	}
	return off + 4
}

func damageBlob(t *testing.T, s *Store, id string, off int) {
	t.Helper()
	path := s.blobPath(id)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[off] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestColdRegionGoldenContainers: the frozen v1, v2 and v3 fixtures
// served cold through Region give exactly sperr.DecompressRegion's bytes.
func TestColdRegionGoldenContainers(t *testing.T) {
	for _, name := range []string{
		"golden_pwe_24x17x9.sperr",
		"golden_pwe_24x17x9_v2.sperr",
		"golden_adaptive_48x32x32_v3.sperr",
	} {
		c := readGoldenFixture(t, name)
		s := openTestStore(t, Options{})
		meta, _, err := s.Put(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := meta.Dims
		for _, rg := range []struct{ origin, dims [3]int }{
			{[3]int{0, 0, 0}, d},
			{[3]int{1, 2, 1}, [3]int{d[0] - 3, d[1] - 4, d[2] - 2}},
			{[3]int{d[0] - 1, d[1] - 1, d[2] - 1}, [3]int{1, 1, 1}},
		} {
			want, err := sperr.DecompressRegion(c, rg.origin, rg.dims)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := s.Region(context.Background(), meta.ID, rg.origin, rg.dims, 2)
			if err != nil {
				t.Fatalf("%s %v@%v: %v", name, rg.dims, rg.origin, err)
			}
			if st.Decoded != st.Chunks {
				t.Fatalf("%s: cold read decoded %d of %d chunks", name, st.Decoded, st.Chunks)
			}
			if !equalFloats(got, want) {
				t.Fatalf("%s %v@%v: cold read differs from DecompressRegion", name, rg.dims, rg.origin)
			}
		}
	}
}

// TestColdRegionFrameDamage: a flipped byte in a frame outside the
// requested box leaves the read correct; in the requested frame it fails
// the read as ErrCorrupt; in the index footer it fails every cold read.
func TestColdRegionFrameDamage(t *testing.T) {
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 9)
	info, err := sperr.Describe(c)
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, Options{})
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	last := len(meta.Chunks) - 1
	damageBlob(t, s, meta.ID, payloadOffset(info, last)+info.FrameBytes[last]/2)

	// Chunk 0's box avoids the damaged last chunk.
	g := meta.Chunks[0]
	want, err := sperr.DecompressRegion(c, g.Origin, g.Dims)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Region(context.Background(), meta.ID, g.Origin, g.Dims, 1)
	if err != nil {
		t.Fatalf("read beside the damaged frame: %v", err)
	}
	if !equalFloats(got, want) {
		t.Fatal("read beside the damaged frame differs from DecompressRegion")
	}

	g = meta.Chunks[last]
	if _, _, err := s.Region(context.Background(), meta.ID, g.Origin, g.Dims, 1); !errors.Is(err, sperr.ErrCorrupt) {
		t.Fatalf("read of the damaged frame: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := s.Region(context.Background(), meta.ID, [3]int{0, 0, 0}, dims, 2); !errors.Is(err, sperr.ErrCorrupt) {
		t.Fatalf("whole-volume read over the damaged frame: err = %v, want ErrCorrupt", err)
	}

	// Footer damage: the index CRC no longer matches, so even the intact
	// chunk 0 cannot be located.
	s2 := openTestStore(t, Options{})
	meta2, _, err := s2.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	damageBlob(t, s2, meta2.ID, len(c)-30)
	g = meta2.Chunks[0]
	if _, _, err := s2.Region(context.Background(), meta2.ID, g.Origin, g.Dims, 1); !errors.Is(err, sperr.ErrCorrupt) {
		t.Fatalf("read through a damaged footer: err = %v, want ErrCorrupt", err)
	}
}

// TestColdRegionSeesReplacedBlob: a blob renamed into place (as a shard
// merge does) is what the next cold read decodes — the store keeps no
// index in memory that could go stale.
func TestColdRegionSeesReplacedBlob(t *testing.T) {
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 21)
	s := openTestStore(t, Options{})
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	g := meta.Chunks[1]
	if _, _, err := s.Region(context.Background(), meta.ID, g.Origin, g.Dims, 1); err != nil {
		t.Fatal(err)
	}
	// Replace the blob with a shard that stubs chunk 1: the next read of
	// chunk 1 must fail, not be served from a remembered frame table.
	shard, err := sperr.SliceShard(c, func(i int) bool { return i != 1 })
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(shard, c) {
		t.Fatal("slicing did not change the container")
	}
	if err := writeFileAtomic(s.blobPath(meta.ID), shard); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Region(context.Background(), meta.ID, g.Origin, g.Dims, 1); err == nil {
		t.Fatal("read of a stubbed chunk succeeded after the blob was replaced")
	}
}
