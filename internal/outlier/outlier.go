// Package outlier implements SPERR's outlier coding algorithm (paper
// Section IV, Listings 1-3): a SPECK-inspired embedded coder for sparse
// (position, correction) tuples that lets SPERR guarantee a maximum
// point-wise error (PWE).
//
// The input is conceptually a length-N 1D array that is zero everywhere
// except at outlier positions, where it holds the correction value
// corr = x - x~ (original minus wavelet reconstruction), with |corr| > t.
// The coder runs sorting and refinement passes against thresholds
// t*2^n for n = nmax .. 0; after the final pass every outlier has been
// located exactly and its correction reconstructed to within t/2, which
// bounds the corrected reconstruction error by the tolerance (Equation 1).
//
// Multi-dimensional inputs are linearized before coding: outlier positions
// carry essentially no spatial correlation (paper Section IV-C, Figure 1),
// so nothing is lost by flattening and the set partitioning stays binary.
package outlier

import (
	"slices"
	"sort"

	"sperr/internal/bits"
)

// Outlier is one (position, correction) tuple. Pos indexes the linearized
// input array; Corr is the value to add to the wavelet reconstruction.
type Outlier struct {
	Pos  int
	Corr float64
}

// Result carries the encoder output.
type Result struct {
	Stream    []byte
	Bits      uint64
	NumPasses int // threshold passes emitted; the decoder must replay as many
}

// NumPasses returns how many threshold passes encode outliers with maximum
// magnitude maxCorr at tolerance tol: passes-1 is the largest n >= 0 with
// tol*2^n < maxCorr (Listing 1, line 4).
func NumPasses(maxCorr, tol float64) int {
	if maxCorr <= tol || tol <= 0 {
		return 0
	}
	n := 0
	for tol*pow2(n+1) < maxCorr {
		n++
	}
	return n + 1
}

func pow2(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	return v
}

// rng is a contiguous index range [start, start+length) of the linearized
// array, tracking which outliers (by index into the sorted outlier slice)
// fall inside it. max caches the largest |corr| inside (encoder only).
type rng struct {
	start, length int32
	lo, hi        int32 // outlier slice subrange
	max           float64
}

// oentry is one outlier being coded: magnitude and sign split, sorted by
// position.
type oentry struct {
	pos  int32
	corr float64 // magnitude; mutates during refinement
	neg  bool
}

// Scratch pools the reusable state of outlier Encode and Decode calls so
// per-chunk coding allocates nothing once warmed up. A zero Scratch is
// ready; it is not safe for concurrent use. Results returned by
// EncodeScratch/DecodeScratch alias the scratch and stay valid only until
// its next use.
type Scratch struct {
	w      *bits.Writer
	r      bits.Reader
	ents   []oentry
	lis    [][]rng
	lsp    []int32
	lspNew []int32
	pts    []dpoint
	out    []Outlier
	// Grows counts buffer (re)allocations; a warmed-up scratch stops
	// growing.
	Grows int
}

func (s *Scratch) resetLIS() [][]rng {
	for i := range s.lis {
		s.lis[i] = s.lis[i][:0]
	}
	if len(s.lis) == 0 {
		s.lis = make([][]rng, 1, 16)
		s.Grows++
	}
	return s.lis
}

// Encode codes the outliers of a length-n array at tolerance tol > 0.
// Every |outlier.Corr| must exceed tol (that is what makes it an outlier);
// values at or below tol are ignored. Positions must be unique and within
// [0, n). The outliers slice is not modified.
func Encode(n int, tol float64, outliers []Outlier) *Result {
	return EncodeScratch(n, tol, outliers, nil)
}

// EncodeScratch is Encode with pooled buffers; the Result aliases s and is
// valid until the next use of s. Output is byte-identical to Encode's.
func EncodeScratch(n int, tol float64, outliers []Outlier, s *Scratch) *Result {
	if len(outliers) == 0 {
		return &Result{}
	}
	if s == nil {
		s = &Scratch{}
	}
	if s.w == nil {
		s.w = bits.NewWriter(len(outliers) * 12)
		s.Grows++
	} else {
		s.w.Reset()
	}
	e := &encoder{w: s.w, ents: s.ents[:0]}
	maxCorr := 0.0
	for _, o := range outliers {
		c := o.Corr
		neg := c < 0
		if neg {
			c = -c
		}
		if c <= tol {
			continue // inlier; nothing to correct
		}
		e.ents = append(e.ents, oentry{pos: int32(o.Pos), corr: c, neg: neg})
		if c > maxCorr {
			maxCorr = c
		}
	}
	s.ents = e.ents
	if len(e.ents) == 0 {
		return &Result{}
	}
	// Sort by position so range membership is a contiguous subrange.
	slices.SortFunc(e.ents, func(a, b oentry) int {
		switch {
		case a.pos < b.pos:
			return -1
		case a.pos > b.pos:
			return 1
		}
		return 0
	})
	e.lis = s.resetLIS()
	e.nd = 1
	e.lsp = s.lsp[:0]
	e.lspNew = s.lspNew[:0]

	passes := NumPasses(maxCorr, tol)
	e.run(n, tol, passes)
	s.lis, s.lsp, s.lspNew = e.lis, e.lsp, e.lspNew
	return &Result{Stream: e.w.Close(), Bits: e.w.Len(), NumPasses: passes}
}

type encoder struct {
	w    *bits.Writer
	ents []oentry // sorted by position; corr mutates during refinement

	lis    [][]rng // buckets by split depth; deeper = smaller ranges
	nd     int     // number of active buckets
	lsp    []int32 // indices into ents
	lspNew []int32
}

func (e *encoder) ensureDepth(d int) {
	for len(e.lis) <= d {
		e.lis = append(e.lis, nil)
	}
	if e.nd <= d {
		e.nd = d + 1
	}
}

func (e *encoder) run(n int, tol float64, passes int) {
	root := rng{start: 0, length: int32(n), lo: 0, hi: int32(len(e.ents))}
	root.max = e.rangeMax(&root)
	e.lis[0] = append(e.lis[0], root)
	for p := passes - 1; p >= 0; p-- {
		thr := tol * pow2(p)
		e.sortingPass(thr)
		e.refinementPass(thr)
	}
}

func (e *encoder) rangeMax(s *rng) float64 {
	m := 0.0
	for i := s.lo; i < s.hi; i++ {
		if c := e.ents[i].corr; c > m {
			m = c
		}
	}
	return m
}

// sortingPass visits LIS ranges smallest first (Listing 2, line 1); ranges
// created by splitting land in deeper, already-visited buckets and are
// processed immediately by recursion.
func (e *encoder) sortingPass(thr float64) {
	for depth := e.nd - 1; depth >= 0; depth-- {
		bucket := e.lis[depth]
		kept := bucket[:0]
		for i := range bucket {
			s := bucket[i]
			if s.max > thr { // significance is strict (Section IV-B)
				e.processSignificant(&s, depth, thr)
			} else {
				e.w.WriteBit(false)
				kept = append(kept, s)
			}
		}
		e.lis[depth] = kept
	}
}

func (e *encoder) processSignificant(s *rng, depth int, thr float64) {
	e.w.WriteBit(true)
	e.descend(s, depth, thr)
}

func (e *encoder) descend(s *rng, depth int, thr float64) {
	if s.length == 1 {
		// Single significant point: emit sign, move to LNSP (Listing 2,
		// lines 5-7). s.lo is the outlier's index.
		e.w.WriteBit(e.ents[s.lo].neg)
		e.lspNew = append(e.lspNew, s.lo)
		return
	}
	e.code(s, depth, thr)
}

// code splits s into two halves at ceil(length/2) and processes both
// immediately (Listing 2, Code(S)). When the first half tests
// insignificant, the second half of a significant parent is implied
// significant and its bit omitted (the Said-Pearlman saving used by the
// reference SPERR outlier coder).
func (e *encoder) code(s *rng, depth int, thr float64) {
	a, b := splitRange(s)
	// Partition the outlier subrange: outliers are sorted by position.
	mid := s.lo
	for mid < s.hi && e.ents[mid].pos < b.start {
		mid++
	}
	a.lo, a.hi = s.lo, mid
	b.lo, b.hi = mid, s.hi
	a.max = e.rangeMax(&a)
	b.max = e.rangeMax(&b)

	childDepth := depth + 1
	e.ensureDepth(childDepth)
	if a.max > thr {
		e.processSignificant(&a, childDepth, thr)
	} else {
		e.w.WriteBit(false)
		e.lis[childDepth] = append(e.lis[childDepth], a)
		// b is implied significant: no bit.
		e.descend(&b, childDepth, thr)
		return
	}
	if b.max > thr {
		e.processSignificant(&b, childDepth, thr)
	} else {
		e.w.WriteBit(false)
		e.lis[childDepth] = append(e.lis[childDepth], b)
	}
}

func (e *encoder) refinementPass(thr float64) {
	// Existing significant points: one refinement bit each (Listing 3),
	// batched into 64-bit words (bit k of a word is the k-th point's bit,
	// matching WriteBit order).
	var word uint64
	var nb uint
	for _, i := range e.lsp {
		o := &e.ents[i]
		if o.corr > thr {
			word |= 1 << nb
			o.corr -= thr
		}
		nb++
		if nb == 64 {
			e.w.WriteBits(word, 64)
			word, nb = 0, 0
		}
	}
	if nb > 0 {
		e.w.WriteBits(word, nb)
	}
	// Newly significant points: quantize with no bit emitted.
	for _, i := range e.lspNew {
		e.ents[i].corr -= thr
	}
	e.lsp = append(e.lsp, e.lspNew...)
	e.lspNew = e.lspNew[:0]
}

// splitRange divides [start, start+length) at ceil(length/2).
func splitRange(s *rng) (a, b rng) {
	half := (s.length + 1) / 2
	a = rng{start: s.start, length: half}
	b = rng{start: s.start + half, length: s.length - half}
	return
}

// Decode reconstructs the outlier list from a bitstream produced by Encode
// with the same n, tol and passes (from Result.NumPasses). The returned
// corrections satisfy |corr~ - corr| <= tol/2 and are sorted by position.
// Truncated streams decode to a valid partial correction list.
func Decode(stream []byte, nbits uint64, n int, tol float64, passes int) []Outlier {
	return DecodeScratch(stream, nbits, n, tol, passes, nil)
}

// DecodeScratch is Decode with pooled buffers; the returned slice aliases
// s and is valid until the next use of s.
func DecodeScratch(stream []byte, nbits uint64, n int, tol float64, passes int, s *Scratch) []Outlier {
	if passes <= 0 {
		return nil
	}
	if s == nil {
		s = &Scratch{}
	}
	s.r.Reset(stream, nbits)
	d := &decoder{r: &s.r}
	d.lis = s.resetLIS()
	d.nd = 1
	d.pts = s.pts[:0]
	d.run(n, tol, passes)
	s.lis, s.pts = d.lis, d.pts
	out := s.out[:0]
	for _, p := range d.pts {
		c := p.val
		if p.neg {
			c = -c
		}
		out = append(out, Outlier{Pos: int(p.pos), Corr: c})
	}
	s.out = out
	sort.Slice(out, func(a, b int) bool { return out[a].Pos < out[b].Pos })
	return out
}

type dpoint struct {
	pos int32
	val float64
	neg bool
}

type decoder struct {
	r    *bits.Reader
	lis  [][]rng
	nd   int      // number of active buckets
	pts  []dpoint // reconstructed significant points (LSP order)
	nOld int      // pts[:nOld] existed before the current sorting pass
}

func (d *decoder) ensureDepth(depth int) {
	for len(d.lis) <= depth {
		d.lis = append(d.lis, nil)
	}
	if d.nd <= depth {
		d.nd = depth + 1
	}
}

func (d *decoder) run(n int, tol float64, passes int) {
	root := rng{start: 0, length: int32(n)}
	d.lis[0] = append(d.lis[0], root)
	for p := passes - 1; p >= 0; p-- {
		thr := tol * pow2(p)
		d.nOld = len(d.pts)
		if !d.sortingPass(thr) {
			return
		}
		if !d.refinementPass(thr) {
			return
		}
	}
}

func (d *decoder) sortingPass(thr float64) bool {
	for depth := d.nd - 1; depth >= 0; depth-- {
		bucket := d.lis[depth]
		kept := bucket[:0]
		for i := range bucket {
			s := bucket[i]
			sig := d.r.ReadBit()
			if d.r.Exhausted() {
				d.lis[depth] = append(kept, bucket[i:]...)
				return false
			}
			if sig {
				if !d.descend(&s, depth, thr) {
					d.lis[depth] = append(kept, bucket[i+1:]...)
					return false
				}
			} else {
				kept = append(kept, s)
			}
		}
		d.lis[depth] = kept
	}
	return true
}

func (d *decoder) descend(s *rng, depth int, thr float64) bool {
	if s.length == 1 {
		neg := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		// Newly significant point: reconstruct at 1.5*thr (Listing 3,
		// line 12, the LNSP rule).
		d.pts = append(d.pts, dpoint{pos: s.start, val: 1.5 * thr, neg: neg})
		return true
	}
	a, b := splitRange(s)
	childDepth := depth + 1
	d.ensureDepth(childDepth)
	sigA := d.r.ReadBit()
	if d.r.Exhausted() {
		d.lis[childDepth] = append(d.lis[childDepth], a, b)
		return false
	}
	if sigA {
		if !d.descend(&a, childDepth, thr) {
			d.lis[childDepth] = append(d.lis[childDepth], b)
			return false
		}
	} else {
		d.lis[childDepth] = append(d.lis[childDepth], a)
		// b is implied significant: the encoder emitted no bit.
		return d.descend(&b, childDepth, thr)
	}
	sigB := d.r.ReadBit()
	if d.r.Exhausted() {
		d.lis[childDepth] = append(d.lis[childDepth], b)
		return false
	}
	if sigB {
		return d.descend(&b, childDepth, thr)
	}
	d.lis[childDepth] = append(d.lis[childDepth], b)
	return true
}

func (d *decoder) refinementPass(thr float64) bool {
	// Only points that existed before this pass's sorting pass receive a
	// refinement bit; points discovered this pass were initialized at
	// 1.5*thr already (LNSP rule).
	half := thr / 2
	if d.r.Remaining() >= uint64(d.nOld) {
		// The whole pass fits in the budget: no exhaustion possible, so
		// read the bits in 64-bit words.
		for i := 0; i < d.nOld; {
			n := d.nOld - i
			if n > 64 {
				n = 64
			}
			word := d.r.ReadBits(uint(n))
			for k := 0; k < n; k, i = k+1, i+1 {
				if word&1 != 0 {
					d.pts[i].val += half
				} else {
					d.pts[i].val -= half
				}
				word >>= 1
			}
		}
		return true
	}
	for i := 0; i < d.nOld; i++ {
		b := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		if b {
			d.pts[i].val += half
		} else {
			d.pts[i].val -= half
		}
	}
	return true
}
