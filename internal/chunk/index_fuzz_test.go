package chunk

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadIndex checks the io.ReaderAt index reader against the
// in-memory parser. The reader sees the stream at an offset inside a
// larger source (io.SectionReader), so it must address frames relative
// to the container, not to whatever holds it. For every input: no
// panic; ReadIndex and parseContainer accept or reject together, both
// rejections are ErrCorrupt; on accept the geometry, codec map and frame
// table agree byte for byte, and DecodeChunk succeeds or fails exactly
// where the in-memory decode does, with identical samples.
func FuzzReadIndex(f *testing.F) {
	for _, name := range goldenContainers {
		f.Add(readGolden(f, name))
	}
	mutants, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "mutant_*.sperr"))
	for _, m := range mutants {
		b, err := os.ReadFile(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Bound what a mutated header may make the decoder allocate; the
	// largest fixture declares 48x32x32 points.
	prev := MaxDecodePoints
	MaxDecodePoints = 1 << 16
	f.Cleanup(func() { MaxDecodePoints = prev })

	f.Fuzz(func(t *testing.T, stream []byte) {
		const pad = 13
		src := append(bytes.Repeat([]byte{0xA5}, pad), stream...)
		src = append(src, 0x5A, 0x5A)
		x, xerr := ReadIndex(io.NewSectionReader(bytes.NewReader(src), pad, int64(len(stream))), int64(len(stream)))
		c, cerr := parseContainer(stream)
		if (xerr == nil) != (cerr == nil) {
			t.Fatalf("ReadIndex err = %v, parseContainer err = %v", xerr, cerr)
		}
		if xerr != nil {
			if !errors.Is(xerr, ErrCorrupt) {
				t.Fatalf("rejection is not ErrCorrupt: %v", xerr)
			}
			return
		}
		if x.version != c.version || x.volDims != c.volDims || x.chunkDims != c.chunkDims ||
			len(x.chunks) != len(c.chunks) || len(x.entries) != len(c.payloads) || len(x.codecs) != len(c.codecs) {
			t.Fatalf("index header disagrees: v%d %v %v vs v%d %v %v",
				x.version, x.volDims, x.chunkDims, c.version, c.volDims, c.chunkDims)
		}
		for i, id := range x.codecs {
			if id != c.codecs[i] {
				t.Fatalf("codec map entry %d: %d vs %d", i, id, c.codecs[i])
			}
		}
		for i, e := range x.entries {
			start := int(e.offset) + 4
			if e != c.entries[i] || !bytes.Equal(stream[start:start+int(e.length)], c.payloads[i]) {
				t.Fatalf("frame %d: entry %+v does not locate the in-memory payload", i, e)
			}
		}
		// Decoding costs far more than parsing; compare the first few
		// chunks, which covers the single-chunk fixtures whole.
		ws := scratchPool.Get().(*workerScratch)
		defer scratchPool.Put(ws)
		for i := 0; i < len(x.entries) && i < 4; i++ {
			got, gerr := x.DecodeChunk(i)
			p, werr := c.payload(i)
			var want []float64
			if werr == nil {
				want, werr = c.decode(i, p, ws.codec, 1)
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("chunk %d: DecodeChunk err = %v, in-memory err = %v", i, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("chunk %d: %d samples vs %d", i, len(got), len(want))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("chunk %d sample %d differs", i, k)
				}
			}
		}
	})
}
