package cluster

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sperr/internal/store"
)

// TestRegionRejectsOverflowingBox: a box whose origin+dims overflows int
// must be refused by the coordinator, not gathered as an empty read.
func TestRegionRejectsOverflowingBox(t *testing.T) {
	container := makeContainer(t, [3]int{16, 16, 16}, [3]int{8, 8, 8}, 3)
	clusters, _ := testCluster(t, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	rep, err := clusters[0].Region(context.Background(), meta.ID,
		[3]int{math.MaxInt, 0, 0}, [3]int{1, 1, 1}, RegionOptions{Workers: 1},
		func(ChunkPiece) error { emitted++; return nil })
	if err == nil {
		t.Fatalf("Region accepted origin (MaxInt,0,0) on a 16^3 volume: %+v, %d pieces", rep, emitted)
	}
}

// TestHedgedLoserFinishesBeforeRegionReturns pins the hedged-fetch race:
// the hedge wins chunk X and is held inside emit, then the other fetch
// of the same attempt completes (its copy of X deduplicated). Region must
// not return while that emit still runs — the caller's assembler is gone
// once Region returns.
//
// Which of the two identical GETs reaches the peer first is up to the
// scheduler, so the peer holds back whichever arrives first until the
// other one's delivery is inside emit; the roles are symmetric. The
// correct code cannot return before emit is released, whatever the
// timing; the 200 ms window only bounds how long a premature return has
// to show itself.
func TestHedgedLoserFinishesBeforeRegionReturns(t *testing.T) {
	container := makeContainer(t, [3]int{32, 16, 16}, [3]int{8, 8, 8}, 4)
	backing := newFakePeer(t)
	emitEntered := make(chan struct{})
	var gets atomic.Int32
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && gets.Add(1) == 1 {
			<-emitEntered
		}
		backing.serve(w, r)
	}))
	t.Cleanup(remote.Close)

	local, err := store.Open(t.TempDir(), store.Options{CacheSamples: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })

	var reading atomic.Bool
	fetchDone := make(chan struct{})
	var fetchOnce sync.Once
	c, err := New(Config{
		Self:       "node-a",
		Peers:      map[string]string{"node-a": "http://self", "node-b": remote.URL},
		Timeout:    5 * time.Second,
		HedgeAfter: 10 * time.Millisecond,
		Replicas:   1,
		Hooks: Hooks{OnPeerRequest: func(peer, outcome string) {
			if reading.Load() && outcome == "ok" {
				fetchOnce.Do(func() { close(fetchDone) })
			}
		}},
	}, local)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := c.Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	x := -1
	for ci := range meta.Chunks {
		if c.Owner(meta.ID, ci) == "node-b" {
			x = ci
			break
		}
	}
	if x < 0 {
		t.Fatal("no chunk owned by the remote peer")
	}

	release := make(chan struct{})
	var inEmit, emitAfterReturn atomic.Bool
	regionDone := make(chan struct{})
	emit := func(ChunkPiece) error {
		inEmit.Store(true)
		close(emitEntered) // X is delivered exactly once
		<-release
		select {
		case <-regionDone:
			emitAfterReturn.Store(true)
		default:
		}
		inEmit.Store(false)
		return nil
	}
	reading.Store(true)
	box := meta.Chunks[x]
	go func() {
		defer close(regionDone)
		if _, err := c.Region(context.Background(), meta.ID, box.Origin, box.Dims,
			RegionOptions{Workers: 1, Fill: math.NaN()}, emit); err != nil {
			t.Error(err)
		}
	}()

	<-emitEntered
	<-fetchDone // the held-back fetch has completed and reported
	select {
	case <-regionDone:
		t.Error("Region returned while a hedged fetch was still inside emit")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	<-regionDone
	if emitAfterReturn.Load() || inEmit.Load() {
		t.Error("emit was still running after Region returned")
	}
}
