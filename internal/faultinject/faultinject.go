// Package faultinject generates deterministic corruption campaigns over
// SPERR container streams: every frame-boundary truncation plus a
// stratified sweep of single-byte flips and zeroed runs across the fixed
// header, each frame body, and the index footer. The campaign is pure —
// no randomness, no clock — so a mutant that fails reproduces forever,
// and each mutant carries the ground truth the salvage tests assert
// against: which chunks' frames the mutation left byte-identical and
// fully present.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Mutant is one deterministic corruption of a container stream.
type Mutant struct {
	// Name identifies the mutation (operation + byte position), stable
	// across runs: "truncate@120", "flip@57&80", "zero@200+8".
	Name string
	// Region classifies where the damage landed: "header", "frame",
	// "footer", or "cut" for truncations.
	Region string
	// Data is the mutated stream (an independent copy).
	Data []byte
	// HeaderIntact reports that the 36-byte fixed header survived — the
	// precondition for salvage to attribute anything at all.
	HeaderIntact bool
	// IntactChunks lists the chunks whose complete frame byte range
	// (length prefix through trailing CRC) is present and byte-identical
	// in Data. Salvage must recover at least this set (v2, intact header).
	IntactChunks []int
	// PayloadIntact lists the chunks whose payload bytes are present and
	// byte-identical, regardless of damage to the length prefix or the
	// trailing CRC — such a chunk may still verify through the index
	// footer's copy of its checksum. Salvage must never recover a chunk
	// outside this set (v2): that would mean delivering damaged samples
	// as good. IntactChunks is always a subset.
	PayloadIntact []int
	// PrefixIntact lists the chunks for which every frame up to and
	// including their own is intact — the guarantee a sequential v1
	// decode (no checksums, resync by header parse only) can honor.
	PrefixIntact []int
}

// layout is the byte map of a container, derived from the stream itself.
type layout struct {
	version int
	size    int
	// frames[i] is the [start, end) byte range of chunk i's full frame:
	// length prefix, payload, and (v2) trailing CRC.
	frames [][2]int
	// footer is the [start, end) range after the last frame: the v2 index
	// footer, or empty for v1.
	footer [2]int
}

// describe walks an intact container's frames by their length prefixes.
// The input must be undamaged — campaigns mutate copies of a golden
// stream, so the walk is trusted.
func describe(stream []byte) (*layout, error) {
	if len(stream) < 36 {
		return nil, fmt.Errorf("faultinject: stream too short (%d bytes)", len(stream))
	}
	var version int
	switch string(stream[:8]) {
	case "SPRRGO01":
		version = 1
	case "SPRRGO02":
		version = 2
	case "SPRRGO03":
		version = 3
	default:
		return nil, fmt.Errorf("faultinject: bad magic %q", stream[:8])
	}
	nchunks := int(binary.LittleEndian.Uint32(stream[32:]))
	l := &layout{version: version, size: len(stream)}
	overhead := 4
	if version >= 2 {
		overhead = 8
	}
	off := 36
	for i := 0; i < nchunks; i++ {
		if off+4 > len(stream) {
			return nil, fmt.Errorf("faultinject: frame %d out of bounds", i)
		}
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		end := off + overhead + n
		if end > len(stream) {
			return nil, fmt.Errorf("faultinject: frame %d overruns stream", i)
		}
		l.frames = append(l.frames, [2]int{off, end})
		off = end
	}
	l.footer = [2]int{off, len(stream)}
	return l, nil
}

// Campaign derives the full deterministic mutation set for one container
// stream: truncations at every frame boundary (plus mid-header,
// mid-frame, and mid-footer cuts), single-byte flips with two masks at
// stratified positions in every region, and 8-byte zeroed runs. The
// input stream must be intact; it is never modified.
func Campaign(stream []byte) ([]Mutant, error) {
	l, err := describe(stream)
	if err != nil {
		return nil, err
	}

	var muts []Mutant
	add := func(m Mutant) {
		m.HeaderIntact = len(m.Data) >= 36 && bytes.Equal(m.Data[:36], stream[:36])
		for i, fr := range l.frames {
			if fr[1] <= len(m.Data) && bytes.Equal(m.Data[fr[0]:fr[1]], stream[fr[0]:fr[1]]) {
				m.IntactChunks = append(m.IntactChunks, i)
				if len(m.PrefixIntact) == i {
					m.PrefixIntact = append(m.PrefixIntact, i)
				}
			}
			pEnd := fr[1]
			if l.version >= 2 {
				pEnd -= 4
			}
			if pEnd <= len(m.Data) && bytes.Equal(m.Data[fr[0]+4:pEnd], stream[fr[0]+4:pEnd]) {
				m.PayloadIntact = append(m.PayloadIntact, i)
			}
		}
		muts = append(muts, m)
	}

	// Truncations: every frame boundary, plus cuts inside the header, each
	// frame, and the footer. The empty and one-byte streams ride along as
	// degenerate boundary cases.
	cutSet := map[int]bool{0: true, 1: true, 8: true, 20: true, 35: true}
	for _, fr := range l.frames {
		cutSet[fr[0]] = true                // before the frame
		cutSet[fr[0]+4] = true              // after its length prefix
		cutSet[(fr[0]+fr[1])/2] = true      // mid-payload
		cutSet[fr[1]] = true                // after the frame
		if l.version >= 2 && fr[1]-1 >= 0 { // inside the trailing CRC
			cutSet[fr[1]-2] = true
		}
	}
	if l.footer[1] > l.footer[0] {
		cutSet[(l.footer[0]+l.footer[1])/2] = true
		cutSet[l.size-1] = true
	}
	cuts := make([]int, 0, len(cutSet))
	for c := range cutSet {
		if c >= 0 && c < l.size {
			cuts = append(cuts, c)
		}
	}
	sort.Ints(cuts)
	for _, c := range cuts {
		add(Mutant{
			Name:   fmt.Sprintf("truncate@%d", c),
			Region: "cut",
			Data:   bytes.Clone(stream[:c]),
		})
	}

	// Single-byte flips, two masks each: a low bit (subtle value damage)
	// and the high bit (structural damage to lengths and offsets).
	type pos struct {
		off    int
		region string
	}
	var flips []pos
	for _, o := range []int{1, 9, 33} { // magic, volDims, nchunks
		flips = append(flips, pos{o, "header"})
	}
	for _, fr := range l.frames {
		flips = append(flips, pos{fr[0], "frame"})     // length prefix
		flips = append(flips, pos{fr[0] + 4, "frame"}) // first payload byte
		flips = append(flips, pos{(fr[0] + fr[1]) / 2, "frame"})
		if l.version >= 2 {
			flips = append(flips, pos{fr[1] - 5, "frame"}) // last payload byte
			flips = append(flips, pos{fr[1] - 3, "frame"}) // inside the CRC
		} else {
			flips = append(flips, pos{fr[1] - 1, "frame"})
		}
	}
	if l.footer[1] > l.footer[0] {
		fo := l.footer[0]
		flips = append(flips, pos{fo, "footer"})                     // first index entry
		flips = append(flips, pos{(fo + l.footer[1]) / 2, "footer"}) // aggregates region
		flips = append(flips, pos{l.size - 20, "footer"})            // tail CRC
		flips = append(flips, pos{l.size - 16, "footer"})            // tail indexOffset
		flips = append(flips, pos{l.size - 4, "footer"})             // tail magic
	}
	for _, p := range flips {
		for _, mask := range []byte{0x01, 0x80} {
			data := bytes.Clone(stream)
			data[p.off] ^= mask
			add(Mutant{
				Name:   fmt.Sprintf("flip@%d&%02x", p.off, mask),
				Region: p.region,
				Data:   data,
			})
		}
	}

	// Zeroed runs: 8 bytes wiped — the shape of a lost sector edge or a
	// partially written page.
	type run struct {
		off    int
		region string
	}
	var runs []run
	runs = append(runs, run{28, "header"}) // chunkDims.NZ + nchunks
	for _, fr := range l.frames {
		runs = append(runs, run{(fr[0] + fr[1]) / 2, "frame"})
	}
	if l.footer[1] > l.footer[0] {
		runs = append(runs, run{l.footer[0], "footer"})
		runs = append(runs, run{l.size - 20, "footer"})
	}
	for _, r := range runs {
		n := 8
		if r.off+n > l.size {
			n = l.size - r.off
		}
		data := bytes.Clone(stream)
		for i := 0; i < n; i++ {
			data[r.off+i] = 0
		}
		add(Mutant{
			Name:   fmt.Sprintf("zero@%d+%d", r.off, n),
			Region: r.region,
			Data:   data,
		})
	}

	return muts, nil
}
