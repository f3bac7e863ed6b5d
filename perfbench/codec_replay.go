package main

// Replays of the per-chunk codec stages through each layer's public
// functions (wavelet, speck, outlier, lossless), on the workload's own
// chunks. The pipeline's own timers cover only the encode stages and
// fold lossless coding into the chunk's remainder, so the replay is
// what splits encode and decode into stages. Each replayed chunk is
// checked byte-for-byte (encode) and bit-for-bit (decode) against the
// codec, so a replay that drifted from the codec fails the run.

import (
	"bytes"
	"fmt"
	"math"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/outlier"
	"sperr/internal/speck"
	"sperr/internal/wavelet"
)

// chunkFrame is one chunk's codec stream inside a v2 container.
type chunkFrame struct {
	origin  [3]int
	dims    grid.Dims
	payload []byte
}

// v2 frames are { payloadLen u32 | payload | crc32c u32 }.
const framePrefix = 4

func chunkFrames(container []byte) ([]chunkFrame, grid.Dims, error) {
	info, err := chunk.Describe(container)
	if err != nil {
		return nil, grid.Dims{}, err
	}
	if info.Version != 2 {
		return nil, grid.Dims{}, fmt.Errorf("replay expects a v2 container, got v%d", info.Version)
	}
	frames := make([]chunkFrame, len(info.Chunks))
	for i, c := range info.Chunks {
		lo := c.Offset + framePrefix
		frames[i] = chunkFrame{origin: c.Origin, dims: c.Dims, payload: container[lo : lo+c.CompressedBytes]}
	}
	return frames, info.VolumeDims, nil
}

// replayer holds the stage arenas, reused across chunks as the
// pipeline's workers reuse theirs.
type replayer struct {
	tr   *tracer
	wav  wavelet.Scratch
	spk  speck.Scratch
	outl outlier.Scratch
	buf  []byte
}

// describe reads a frame's header through the codec and inflates its
// payload (header | SPECK stream | outlier stream) into the reused
// buffer. It returns the offset of the SPECK stream in the payload.
func (r *replayer) describe(f chunkFrame) (*codec.StreamMeta, []byte, int, error) {
	meta, err := codec.DescribeChunk(f.payload)
	if err != nil {
		return nil, nil, 0, err
	}
	if meta.Entropy || f.payload[0] == 0xFF {
		return nil, nil, 0, fmt.Errorf("replay expects a lossless-coded chunk without SPECK-AC, chunk at %v", f.origin)
	}
	payload, err := lossless.DecompressInto(r.buf, f.payload)
	if err != nil {
		return nil, nil, 0, err
	}
	r.buf = payload
	body := len(payload) - int((meta.SpeckBits+7)/8) - int((meta.OutlierBits+7)/8)
	if body < 0 {
		return nil, nil, 0, fmt.Errorf("chunk at %v: payload shorter than its streams", f.origin)
	}
	return meta, payload, body, nil
}

// encode replays one PWE chunk encode stage by stage and checks each
// stage's output against the container's frame.
func (r *replayer) encode(req int64, data []float64, f chunkFrame, tol float64) error {
	meta, payload, body, err := r.describe(f)
	if err != nil {
		return err
	}
	tr := r.tr
	id := tr.begin("codec.enc", 0, req)
	n := f.dims.Len()
	q := codec.DefaultQFactor * tol

	coeffs := make([]float64, n)
	plan := wavelet.NewPlan(f.dims)
	tr.timed("wavelet.fwd", id, req, func() {
		copy(coeffs, data)
		plan.ForwardScratch(coeffs, &r.wav)
	})
	var sres *speck.Result
	tr.timed("speck.enc", id, req, func() { sres = speck.EncodeScratch(coeffs, f.dims, q, 0, &r.spk) })
	var outs []outlier.Outlier
	tr.timed("codec.locate", id, req, func() {
		recon, ok := speck.ReplayScratch(f.dims, q, &r.spk)
		if !ok {
			recon = speck.DecodeScratch(sres.Stream, sres.Bits, f.dims, q, sres.NumPlanes, &r.spk)
		}
		plan.InverseScratch(recon, &r.wav)
		for i := range data {
			if d := data[i] - recon[i]; math.Abs(d) > tol {
				outs = append(outs, outlier.Outlier{Pos: i, Corr: d})
			}
		}
	})
	var ores *outlier.Result
	tr.timed("outlier.enc", id, req, func() { ores = outlier.EncodeScratch(n, tol, outs, &r.outl) })
	// The lossless stage compresses the codec's own payload, whose
	// streams are checked against the replayed ones below.
	var out []byte
	tr.timed("lossless.enc", id, req, func() { out = lossless.Compress(payload) })
	tr.end(id)

	sb := body + len(sres.Stream)
	switch {
	case meta.Q != q || meta.Planes != sres.NumPlanes || meta.SpeckBits != sres.Bits ||
		meta.OutlierBits != ores.Bits || meta.OutlierPasses != ores.NumPasses:
		return fmt.Errorf("replayed encode of chunk at %v: stream parameters differ from the codec's header", f.origin)
	case sb > len(payload) || !bytes.Equal(payload[body:sb], sres.Stream) || !bytes.Equal(payload[sb:], ores.Stream):
		return fmt.Errorf("replayed encode of chunk at %v: streams differ from the codec's frame", f.origin)
	case !bytes.Equal(out, f.payload):
		return fmt.Errorf("replayed lossless stage of chunk at %v differs from the codec's frame", f.origin)
	}
	return nil
}

// decode replays one chunk decode stage by stage and checks it against
// codec.DecodeChunk. The header is read before the chunk's span starts,
// because codec.DescribeChunk inflates it a second time.
func (r *replayer) decode(req int64, f chunkFrame) error {
	meta, err := codec.DescribeChunk(f.payload)
	if err != nil {
		return err
	}
	tr := r.tr
	id := tr.begin("codec.dec", 0, req)
	n := f.dims.Len()
	var payload []byte
	tr.timed("lossless.dec", id, req, func() { payload, err = lossless.DecompressInto(r.buf, f.payload) })
	if err != nil {
		tr.end(id)
		return err
	}
	r.buf = payload
	sb := int((meta.SpeckBits + 7) / 8)
	body := len(payload) - sb - int((meta.OutlierBits+7)/8)
	if body < 0 {
		tr.end(id)
		return fmt.Errorf("chunk at %v: payload shorter than its streams", f.origin)
	}
	spk := payload[body : body+sb]
	var coeffs []float64
	tr.timed("speck.dec", id, req, func() {
		coeffs = speck.DecodeScratch(spk, meta.SpeckBits, f.dims, meta.Q, meta.Planes, &r.spk)
	})
	tr.timed("wavelet.inv", id, req, func() { wavelet.NewPlan(f.dims).InverseScratch(coeffs, &r.wav) })
	var outs []outlier.Outlier
	if meta.OutlierBits > 0 {
		tr.timed("outlier.dec", id, req, func() {
			outs = outlier.DecodeScratch(payload[body+sb:], meta.OutlierBits, n, meta.Tol, meta.OutlierPasses, &r.outl)
		})
	}
	for _, o := range outs {
		coeffs[o.Pos] += o.Corr
	}
	tr.end(id)

	want, err := codec.DecodeChunk(f.payload, f.dims)
	if err != nil {
		return err
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(coeffs[i]) {
			return fmt.Errorf("replayed decode of chunk at %v differs from codec.DecodeChunk at %d", f.origin, i)
		}
	}
	return nil
}

// replayVolume replays every chunk of container (compressed from field at
// tol) through the encode and decode stages. Each chunk is one top-level
// codec.enc or codec.dec span whose children are the stages, so the
// part of a chunk no stage covers is the codec's own remainder.
func replayVolume(tr *tracer, field []float64, container []byte, tol float64) error {
	frames, vd, err := chunkFrames(container)
	if err != nil {
		return err
	}
	vol := grid.FromSlice(vd, field)
	r := &replayer{tr: tr}
	req := tr.request()
	for _, f := range frames {
		data := vol.Cutout(f.origin[0], f.origin[1], f.origin[2], f.dims).Data
		if err := r.encode(req, data, f, tol); err != nil {
			return err
		}
	}
	for _, f := range frames {
		if err := r.decode(req, f); err != nil {
			return err
		}
	}
	return nil
}
