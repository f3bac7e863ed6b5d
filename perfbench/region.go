package main

// The region workloads: node-region-hot (one sperrd node, whole volume
// cached) and cluster-churn-cold (three peers, R=2, caches holding a
// quarter of the data, reads mixed with volume replacement). Load comes
// from runtime.NumCPU() closed-loop callers in this process; each waits
// for its reply before sending the next request.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

const (
	regionChunk = 32 // chunk edge of the served volumes
	boxEdge     = 48 // edge of every region read
	// boxStep is the lattice box origins sit on: every box still
	// straddles chunks in many ways, and the oracle decodes each of the
	// 11^3 distinct boxes once however many reads return it.
	boxStep = 8
	// clusterVolumes is the pool of compressed volumes the cold workload
	// cycles through; clusterResident of them are ingested at any time.
	clusterVolumes  = 6
	clusterResident = 4
	// replaceShare is the seeded share of cold-workload operations that
	// replace the oldest resident volume instead of reading. At about 40
	// operations a second, 5% gives write_p50_ms 45 to 70 PUTs in 30 s
	// (2% gives about 25). Across 2%, 5% and 10% the median read p50 and
	// p90 moved by less than 5%, inside the run-to-run noise; only the
	// read rate falls as replaces take more of the callers' time.
	replaceShare = 0.05
	// hotEncodes is how many compressions of its volume each
	// node-region-hot setup times: the measured run is read-only, so its
	// write figure is the client-side compress that precedes the ingest.
	// (The single-node PUT is fsync-bound and varied by a third between
	// runs on a shared disk, more than any bound allows.)
	hotEncodes = 3
	// warmup is how long the cold workload runs unmeasured after setup,
	// so its caches reach their steady state before timing.
	warmup = time.Second
)

var volPoints = int64(volN * volN * volN)

// regionBox is the shape of every region read.
var regionBox = box{d: [3]int{boxEdge, boxEdge, boxEdge}}

func randomBox(rng *rand.Rand) box {
	b := regionBox
	for a := 0; a < 3; a++ {
		b.o[a] = boxStep * rng.Intn((volN-boxEdge)/boxStep+1)
	}
	return b
}

// seededBoxes is the traced run's probe set.
func seededBoxes(seed int64, n int) []box {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	out := make([]box, n)
	for i := range out {
		out[i] = randomBox(rng)
	}
	return out
}

// shifted is field circularly shifted by (dx, dy, dz). The synthetic
// fields are periodic, so every shift is another sample of the same
// random field, and a pool of volumes costs one field generation.
func shifted(field []float64, dx, dy, dz int) []float64 {
	out := make([]float64, len(field))
	for z := 0; z < volN; z++ {
		for y := 0; y < volN; y++ {
			src := field[(((z+dz)%volN)*volN+(y+dy)%volN)*volN:][:volN]
			dst := out[(z*volN+y)*volN:][:volN]
			copy(dst, src[dx:])
			copy(dst[volN-dx:], src[:dx])
		}
	}
	return out
}

// callerStats is one caller's tally; the loop merges them at the end.
type callerStats struct {
	start                 time.Time // of the loop
	reads, traced, writes samples
	readsDone             samples // completion times of reads, since start
	readBytes             int64
	attempted, failed     int
	nonHit                int
	okTrailers            int // reads whose trailer was "ok"
	recs                  []readRecord
}

func (a *callerStats) merge(b *callerStats) {
	a.reads = append(a.reads, b.reads...)
	a.traced = append(a.traced, b.traced...)
	a.writes = append(a.writes, b.writes...)
	a.readsDone = append(a.readsDone, b.readsDone...)
	a.readBytes += b.readBytes
	a.attempted += b.attempted
	a.failed += b.failed
	a.nonHit += b.nonHit
	a.okTrailers += b.okTrailers
	a.recs = append(a.recs, b.recs...)
}

// closedLoop runs one op at a time on each of runtime.NumCPU() callers
// for dur, each with its own seeded generator, and returns the merged
// tallies and the elapsed time.
func closedLoop(seed int64, dur time.Duration, op func(caller, i int, rng *rand.Rand, buf *bytes.Buffer, cs *callerStats)) (*callerStats, time.Duration) {
	callers := runtime.NumCPU()
	per := make([]callerStats, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range per {
		per[c].start = start
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			var buf bytes.Buffer
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i, rng, &buf, &per[c])
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := &callerStats{}
	for i := range per {
		all.merge(&per[i])
	}
	return all, elapsed
}

// readOp is one timed region read with its checks. traced reads are a
// top-level span with the HTTP phases as children.
func readOp(svc *service, c int, id string, vol int, b box, buf *bytes.Buffer, tr *tracer, cs *callerStats) {
	req := tr.request()
	top := tr.begin("http.read", 0, req)
	t0 := time.Now()
	rep, err := svc.region(c, id, b, buf, tr, top, req)
	d := time.Since(t0)
	tr.end(top)
	cs.attempted++
	switch {
	case err != nil || rep.status != 200 || !svc.complete(rep.trailer):
		cs.failed++
		return
	case rep.bytes != b.points()*8:
		cs.failed++
		return
	}
	if tr != nil {
		cs.traced = append(cs.traced, d)
	} else {
		cs.reads = append(cs.reads, d)
	}
	cs.readBytes += int64(rep.bytes)
	cs.readsDone = append(cs.readsDone, time.Since(cs.start))
	if rep.cache != "" && rep.cache != "hit" {
		cs.nonHit++
	}
	if rep.trailer == "ok" {
		cs.okTrailers++
	}
	cs.recs = append(cs.recs, readRecord{vol: vol, b: b, crc: rep.crc})
}

// rateWindow is the window over which read_mbps counts delivered bytes;
// the run reports the median window, so a few seconds of interference
// from outside the process do not move it.
const rateWindow = 2 * time.Second

// windowedMBps is the median over whole rateWindows of the MB of region
// data delivered per second.
func (cs *callerStats) windowedMBps(b box, elapsed time.Duration) float64 {
	n := int(elapsed / rateWindow)
	if n == 0 {
		return float64(cs.readBytes) / 1e6 / elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range cs.readsDone {
		if w := int(d / rateWindow); w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] *= float64(b.points()*8) / 1e6 / rateWindow.Seconds()
	}
	return median(counts)
}

// tracedEvery alternates traced and untraced operations in a traced run,
// so the tracing overhead is measured on the same inputs.
func tracedEvery(tr *tracer, i int) *tracer {
	if i%2 == 1 {
		return tr
	}
	return nil
}

func runNodeHot(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	var (
		svc       *service
		field     []float64
		container []byte
		id        string
		setups    []float64
		encs      samples
	)
	repeats := setupRepeats
	if cfg.tr != nil {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		field = mirandaField(cfg.seed)
		for k := 0; k < hotEncodes; k++ {
			e0 := time.Now()
			c, _, _, err := encodeStream(field, regionChunk, nil)
			encs = append(encs, time.Since(e0))
			if err != nil {
				return nil, err
			}
			if container != nil && !bytes.Equal(c, container) {
				o.fail("setup %d: the same seed gave a different stream", i)
			}
			container = c
		}
		// The cache holds the whole volume twice over.
		var err error
		svc, err = bootNode(filepath.Join(cfg.dir, fmt.Sprintf("node-%d", i)), 2*volPoints)
		if err != nil {
			return nil, err
		}
		if id, err = svc.put(0, container); err != nil {
			return nil, err
		}
		// Warm the cache with one whole-volume read, then check it holds.
		var buf bytes.Buffer
		for k, want := range []string{"", "hit"} {
			rep, err := svc.region(0, id, box{d: volDims}, &buf, nil, 0, 0)
			if err != nil || rep.status != 200 || (want != "" && rep.cache != want) {
				return nil, fmt.Errorf("warm read %d: status %d cache %q: %v", k, rep.status, rep.cache, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()
	o.context = map[string]any{
		"working_set_over_cache": float64(volPoints) / float64(2*volPoints),
		"compressed_bytes":       len(container),
	}
	o.context["seed_bpp"] = float64(len(container)*8) / float64(volPoints)

	read := func(tr *tracer) func(int, int, *rand.Rand, *bytes.Buffer, *callerStats) {
		return func(_, i int, rng *rand.Rand, buf *bytes.Buffer, cs *callerStats) {
			readOp(svc, 0, id, 0, randomBox(rng), buf, tracedEvery(tr, i), cs)
		}
	}
	if cfg.tr != nil {
		return o, tracedRegion(cfg, o, regionTraceInput{
			field: field, container: container, id: id, svc: svc, single: true, containers: [][]byte{container},
			heldBytes: len(container),
			loop:      func(d time.Duration) (*callerStats, time.Duration) { return closedLoop(cfg.seed, d, read(cfg.tr)) },
		})
	}
	o.context["setup_rss_mb"] = settle()
	cpu0 := readCPUTimes()
	cs, elapsed := closedLoop(cfg.seed, cfg.duration(), read(nil))
	rss := peakRSSMB()
	o.context["steal_frac"] = stealSince(cpu0)
	bpp, err := referenceBPP(regionChunk, o)
	if err != nil {
		return nil, err
	}
	verifyReads([][]byte{container}, cs.recs, o)
	o.attempted, o.failed = cs.attempted, cs.failed
	o.context["reads"], o.context["non_hit_reads"] = len(cs.reads), cs.nonHit
	o.context["write_samples"] = len(encs)
	o.context["read_p90_samples_beyond"] = cs.reads.beyond(0.9)
	o.context["region_rps"] = float64(len(cs.reads)) / elapsed.Seconds()
	o.e2e(cs.windowedMBps(regionBox, elapsed), cs.reads.quantile(0.5), cs.reads.quantile(0.9),
		encs.quantile(0.5), bpp, setups, rss)
	return o, nil
}

// churn is the cold workload's resident set: reads pick a resident
// volume and hold it until they finish; a replace ingests the next pool
// volume, retires the oldest resident, waits for its reads to drain and
// deletes it, so no read ever races a delete.
type churn struct {
	mu       sync.Mutex
	resident []int // oldest first
	pool     []int // not ingested
	ids      []string
	readers  []sync.WaitGroup
	replace  sync.Mutex
}

func (ch *churn) pick(rng *rand.Rand) (int, string) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	v := ch.resident[rng.Intn(len(ch.resident))]
	ch.readers[v].Add(1)
	return v, ch.ids[v]
}

func (ch *churn) replaceOldest(svc *service, c int, containers [][]byte, cs *callerStats) {
	ch.replace.Lock()
	defer ch.replace.Unlock()
	cs.attempted++
	ch.mu.Lock()
	v := ch.pool[0]
	ch.mu.Unlock()
	t0 := time.Now()
	id, err := svc.put(c, containers[v])
	d := time.Since(t0)
	if err != nil {
		cs.failed++
		return
	}
	cs.writes = append(cs.writes, d)
	ch.mu.Lock()
	ch.pool = ch.pool[1:]
	ch.ids[v] = id
	ch.resident = append(ch.resident, v)
	old := ch.resident[0]
	ch.resident = ch.resident[1:]
	ch.mu.Unlock()
	ch.readers[old].Wait()
	if err := svc.del(c, ch.ids[old]); err != nil {
		cs.failed++
	}
	ch.mu.Lock()
	ch.pool = append(ch.pool, old)
	ch.mu.Unlock()
}

func runClusterCold(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	var (
		svc        *service
		field      []float64
		shifts     [][3]int
		containers [][]byte
		ch         *churn
		setups     []float64
	)
	// Each peer caches a quarter of what it serves as primary owner: the
	// distinct resident data over the three caches' sum is 4.
	cachePerPeer := clusterResident * volPoints / (4 * 3)
	repeats := setupRepeats
	if cfg.tr != nil {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		field = mirandaField(cfg.seed)
		rng := rand.New(rand.NewSource(cfg.seed))
		containers, shifts = containers[:0], shifts[:0]
		for v := 0; v < clusterVolumes; v++ {
			var s [3]int
			if v > 0 {
				s = [3]int{rng.Intn(volN), rng.Intn(volN), rng.Intn(volN)}
			}
			shifts = append(shifts, s)
			c, _, _, err := encodeStream(shifted(field, s[0], s[1], s[2]), regionChunk, nil)
			if err != nil {
				return nil, err
			}
			containers = append(containers, c)
		}
		var err error
		svc, err = bootCluster(filepath.Join(cfg.dir, fmt.Sprintf("cluster-%d", i)), 3, 2, cachePerPeer)
		if err != nil {
			return nil, err
		}
		ch = &churn{ids: make([]string, clusterVolumes), readers: make([]sync.WaitGroup, clusterVolumes)}
		for v := 0; v < clusterVolumes; v++ {
			if v >= clusterResident {
				ch.pool = append(ch.pool, v)
				continue
			}
			if ch.ids[v], err = svc.put(v%len(svc.peers), containers[v]); err != nil {
				return nil, err
			}
			ch.resident = append(ch.resident, v)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()
	var compressed int
	for _, c := range containers {
		compressed += len(c)
	}
	o.context = map[string]any{
		"working_set_over_cache":            float64(clusterResident*volPoints) / float64(3*cachePerPeer),
		"replicated_working_set_over_cache": float64(2*clusterResident*volPoints) / float64(3*cachePerPeer),
		"compressed_bytes":                  compressed,
	}
	o.context["seed_bpp"] = float64(compressed*8) / float64(int64(len(containers))*volPoints)

	op := func(tr *tracer) func(int, int, *rand.Rand, *bytes.Buffer, *callerStats) {
		return func(caller, i int, rng *rand.Rand, buf *bytes.Buffer, cs *callerStats) {
			c := (caller + i) % len(svc.peers)
			if rng.Float64() < replaceShare {
				ch.replaceOldest(svc, c, containers, cs)
				return
			}
			v, id := ch.pick(rng)
			defer ch.readers[v].Done()
			readOp(svc, c, id, v, randomBox(rng), buf, tracedEvery(tr, i), cs)
		}
	}
	if ws, _ := closedLoop(cfg.seed+1, warmup, op(nil)); ws.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up operations failed", ws.failed, ws.attempted)
	}
	if cfg.tr != nil {
		ch.mu.Lock()
		v0, spare := ch.resident[0], ch.pool[0]
		held := 0
		for _, v := range ch.resident {
			held += len(containers[v])
		}
		ch.mu.Unlock()
		s := shifts[v0]
		return o, tracedRegion(cfg, o, regionTraceInput{
			field: shifted(field, s[0], s[1], s[2]), container: containers[v0], spare: containers[spare],
			id: ch.ids[v0], svc: svc, containers: containers, heldBytes: held,
			loop: func(d time.Duration) (*callerStats, time.Duration) { return closedLoop(cfg.seed, d, op(cfg.tr)) },
		})
	}
	o.context["setup_rss_mb"] = settle()
	cpu0 := readCPUTimes()
	cs, elapsed := closedLoop(cfg.seed, cfg.duration(), op(nil))
	rss := peakRSSMB()
	o.context["steal_frac"] = stealSince(cpu0)
	o.context["hedges"] = hedges(svc)
	bpp, err := referenceBPP(regionChunk, o)
	if err != nil {
		return nil, err
	}
	verifyReads(containers, cs.recs, o)
	o.attempted, o.failed = cs.attempted, cs.failed
	o.context["reads"], o.context["replaces"] = len(cs.reads), len(cs.writes)
	o.context["ok_trailer_reads"] = cs.okTrailers
	o.context["read_p90_samples_beyond"] = cs.reads.beyond(0.9)
	o.context["region_rps"] = float64(len(cs.reads)) / elapsed.Seconds()
	o.e2e(cs.windowedMBps(regionBox, elapsed), cs.reads.quantile(0.5), cs.reads.quantile(0.9),
		cs.writes.quantile(0.5), bpp, setups, rss)
	return o, nil
}
