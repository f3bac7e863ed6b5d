package cluster

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sperr"
)

// TestRegionFailsOverDamagedLocalFrame: bit rot in one frame of the
// coordinator's own shard fails that chunk's local decode as ErrCorrupt,
// and an R=2 read fetches the chunk from its replica instead, staying
// bit-identical to the single-node decode.
func TestRegionFailsOverDamagedLocalFrame(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 23)
	clusters, peers := testClusterR(t, 3, 2)
	c := clusters[0]
	meta, _, err := c.Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate the read from chunk k's primary owner, so its first
	// attempt is the local decode of the damaged frame.
	const k = 0
	owner := clusters[0].Owner(meta.ID, k)
	ni := int(owner[len("node-")] - 'a')
	c = clusters[ni]

	// Flip a byte in the middle of chunk k's payload in the owner's shard.
	st := peers[ni].st
	path := filepath.Join(st.Dir(), "volumes", meta.ID+".sperr")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sperr.Describe(blob)
	if err != nil {
		t.Fatal(err)
	}
	off := 36 // fixed header; each frame is length u32 | payload | crc u32
	for j := 0; j < k; j++ {
		off += 8 + info.FrameBytes[j]
	}
	blob[off+4+info.FrameBytes[k]/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	box := meta.Chunks[k]
	if _, _, err := st.Region(context.Background(), meta.ID, box.Origin, box.Dims, 1); !errors.Is(err, sperr.ErrCorrupt) {
		t.Fatalf("local read of the damaged frame: err = %v, want ErrCorrupt", err)
	}
	want, err := sperr.DecompressRegionWorkers(container, box.Origin, box.Dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, rep := gather(t, c, meta.ID, box.Origin, box.Dims, math.NaN())
	if len(rep.Skipped) != 0 || rep.FailedOver != 1 {
		t.Fatalf("read skipped %v, failed over %d chunks; want the damaged chunk served by its replica",
			rep.Skipped, rep.FailedOver)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("sample %d differs from the single-node decode after failover", i)
		}
	}
}
