package main

// pipeline-miranda: a streaming Encoder -> Decoder round trip of a seeded
// Miranda-like 128^3 float64 field at PWE 1e-3 with 64^3 chunks. The
// codec stages, the chunk pipeline and the streaming engine do all the
// work; store, server and cluster sit idle.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"sperr"
	"sperr/internal/grid"
	"sperr/internal/synth"
)

const (
	volN = 128  // volume edge
	tol  = 1e-3 // PWE tolerance of every workload
)

var volDims = [3]int{volN, volN, volN}

// volumeMB is one float64 volume in MB (1e6 bytes).
var volumeMB = float64(volN*volN*volN*8) / 1e6

// mirandaField is the workload's seeded input field.
func mirandaField(seed int64) []float64 {
	return synth.MirandaVelocityX(grid.D3(volN, volN, volN), seed).Data
}

// bppSeed is the seed of the reference field bpp is measured on, the one
// the repository's Go benchmarks use. bpp is then exact and the same for
// every --seed, so a change in it can only come from the code.
const bppSeed = 1

// referenceBPP compresses the reference field with chunkEdge chunks,
// checks the round trip is within tol, and returns the bits per point.
// It runs after the measured phase.
func referenceBPP(chunkEdge int, o *outcome) (float64, error) {
	field := mirandaField(bppSeed)
	c, _, _, err := encodeStream(field, chunkEdge, nil)
	if err != nil {
		return 0, err
	}
	rec, _, err := decodeStream(c, nil)
	if err != nil {
		return 0, err
	}
	if e := maxAbsErr(field, rec); e > tol {
		o.fail("reference field round trip: max error %g > %g", e, tol)
	}
	return float64(len(c)*8) / float64(volPoints), nil
}

// encodeStream compresses field through a streaming Encoder written in
// z-plane slabs. When tr is set, the encode is a top-level span and each
// chunk the pipeline reports through Options.Instrument becomes a child
// span (ending when its event arrives, lasting its WallTime) with its
// four stage times laid end to end inside it.
func encodeStream(field []float64, chunkEdge int, tr *tracer) ([]byte, *sperr.Stats, int, error) {
	var buf bytes.Buffer
	buf.Grow(len(field) * 2)
	opts := &sperr.Options{ChunkDims: [3]int{chunkEdge, chunkEdge, chunkEdge}, Workers: runtime.NumCPU()}
	var top, req int64
	if tr != nil {
		req = tr.request()
		top = tr.begin("stream.encode", 0, req)
		opts.Instrument = func(e sperr.ChunkEvent) {
			end := time.Now()
			at := end.Add(-e.WallTime)
			c := tr.add("codec.chunk", top, req, at, end)
			for _, st := range []struct {
				name string
				d    time.Duration
			}{{"pipe.transform", e.TransformTime}, {"pipe.speck", e.SpeckTime}, {"pipe.locate", e.LocateTime}, {"pipe.outlier", e.OutlierTime}} {
				tr.add(st.name, c, req, at, at.Add(st.d))
				at = at.Add(st.d)
			}
		}
	}
	enc, err := sperr.NewEncoderPWE(&buf, volDims, tol, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	plane := volN * volN
	for z := 0; z < volN; z++ {
		if _, err := enc.Write(field[z*plane : (z+1)*plane]); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := enc.Close(); err != nil {
		return nil, nil, 0, err
	}
	tr.end(top)
	return buf.Bytes(), enc.Stats(), enc.PeakInFlightSamples(), nil
}

// decodeStream decompresses container through a streaming Decoder.
func decodeStream(container []byte, tr *tracer) ([]float64, int, error) {
	req := tr.request()
	top := tr.begin("stream.decode", 0, req)
	defer tr.end(top)
	d, err := sperr.NewDecoder(bytes.NewReader(container))
	if err != nil {
		return nil, 0, err
	}
	d.SetWorkers(runtime.NumCPU())
	out, dims, err := d.DecodeAll()
	if err != nil {
		return nil, 0, err
	}
	if dims != volDims {
		return nil, 0, fmt.Errorf("decoded dims %v", dims)
	}
	return out, d.PeakInFlightSamples(), nil
}

// maxAbsErr is the point-wise error oracle.
func maxAbsErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		m = math.Max(m, d)
	}
	return m
}

func runPipeline(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	var (
		field  []float64
		ref    []byte
		stats  *sperr.Stats
		setups []float64
	)
	repeats := setupRepeats
	if cfg.tr != nil {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		field = mirandaField(cfg.seed)
		c, st, _, err := encodeStream(field, 64, nil)
		if err != nil {
			return nil, err
		}
		rec, _, err := decodeStream(c, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if e := maxAbsErr(field, rec); e > tol {
			o.fail("setup round trip: max error %g > %g", e, tol)
		}
		if ref != nil && !bytes.Equal(ref, c) {
			o.fail("setup %d: the same seed gave a different stream", i)
		}
		ref, stats = c, st
	}
	sum := sha256.Sum256(ref)
	o.context = map[string]any{
		"stream_sha256":    hex.EncodeToString(sum[:]),
		"compressed_bytes": len(ref),
		"chunks":           stats.NumChunks,
	}
	if cfg.tr != nil {
		return o, tracedPipeline(cfg, o, field, ref)
	}

	// Compress for a quarter of the run, then decompress: the median
	// compress needs a few dozen samples, the decode's 90th percentile
	// well over a hundred.
	var encs, decs samples
	o.context["setup_rss_mb"] = settle()
	cpu0 := readCPUTimes()
	start := time.Now()
	for time.Since(start) < cfg.duration()/4 || len(encs) == 0 {
		t0 := time.Now()
		c, _, _, err := encodeStream(field, 64, nil)
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		encs = append(encs, d)
		if !bytes.Equal(c, ref) {
			o.fail("encode %d: stream differs from the seed's reference stream", len(encs))
		}
	}
	for time.Since(start) < cfg.duration() || len(decs) == 0 {
		t0 := time.Now()
		rec, _, err := decodeStream(ref, nil)
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		decs = append(decs, d)
		if e := maxAbsErr(field, rec); e > tol {
			o.fail("decode %d: max error %g > %g", len(decs), e, tol)
		}
	}
	rss := peakRSSMB()
	o.context["steal_frac"] = stealSince(cpu0)
	bpp, err := referenceBPP(64, o)
	if err != nil {
		return nil, err
	}
	o.context["seed_bpp"] = stats.BPP
	o.context["encodes"], o.context["decodes"] = len(encs), len(decs)
	o.context["read_p90_samples_beyond"] = decs.beyond(0.9)
	o.context["working_set_over_cache"] = "n/a (no cache on this path)"
	p50 := decs.quantile(0.5)
	o.e2e(volumeMB/(p50/1e3), p50, decs.quantile(0.9), encs.quantile(0.5), bpp, setups, rss)
	return o, nil
}
