package wavelet

import (
	"math"

	"sperr/internal/grid"
	"sperr/internal/par"
)

// step is one level of the dyadic decomposition: the extent of the current
// approximation box and which axes are transformed at this level.
type step struct {
	nx, ny, nz int
	ax, ay, az bool
}

// Plan precomputes the level schedule of a multi-dimensional transform for
// a given volume extent, so that forward and inverse transforms replay the
// identical sequence of 1D passes. Plans are immutable and safe for
// concurrent use; per-call scratch space is allocated by the worker.
type Plan struct {
	dims  grid.Dims
	steps []step
}

// NewPlan builds the transform schedule for dims. Axes of different length
// receive different numbers of passes: an axis is active at level i while
// i < Levels(axis length).
func NewPlan(dims grid.Dims) *Plan {
	lx, ly, lz := Levels(dims.NX), Levels(dims.NY), Levels(dims.NZ)
	total := lx
	if ly > total {
		total = ly
	}
	if lz > total {
		total = lz
	}
	p := &Plan{dims: dims}
	cx, cy, cz := dims.NX, dims.NY, dims.NZ
	for i := 0; i < total; i++ {
		st := step{nx: cx, ny: cy, nz: cz, ax: i < lx, ay: i < ly, az: i < lz}
		p.steps = append(p.steps, st)
		if st.ax {
			cx = (cx + 1) / 2
		}
		if st.ay {
			cy = (cy + 1) / 2
		}
		if st.az {
			cz = (cz + 1) / 2
		}
	}
	return p
}

// Dims returns the extent the plan was built for.
func (p *Plan) Dims() grid.Dims { return p.dims }

// NumLevels returns the total number of decomposition levels.
func (p *Plan) NumLevels() int { return len(p.steps) }

// Scratch holds the per-call temporaries of a multi-dimensional transform
// — 1D line buffers plus the panel tiles of the blocked Y/Z passes — so
// repeated transforms (one per chunk in the parallel pipeline) reuse
// buffers instead of allocating. The zero value is ready; buffers grow on
// demand and are retained across calls. A Scratch is not safe for
// concurrent use — give each worker its own; the threaded transform entry
// points draw per-goroutine sub-scratches from the same arena. Plans stay
// immutable and shareable.
type Scratch struct {
	line, tmp   []float64
	panel, ptmp []float64
	subs        []*Scratch // lazily grown per-extra-goroutine arenas
	ws          []*Scratch // pooled worker-set slice handed to the passes
	// Grows counts how many times this scratch's buffers had to be
	// (re)allocated; a warmed-up steady state stops growing. Sub-scratch
	// growth is reported by TotalGrows.
	Grows int
}

// buffers returns the line and deinterleave temporaries, each of length n.
func (s *Scratch) buffers(n int) (line, tmp []float64) {
	if cap(s.line) < n || cap(s.tmp) < n {
		s.line = make([]float64, n)
		s.tmp = make([]float64, n)
		s.Grows++
	}
	return s.line[:n], s.tmp[:n]
}

// panels returns the panel tile and its deinterleave twin, each sized for
// n rows of panelW columns.
func (s *Scratch) panels(n int) (panel, ptmp []float64) {
	need := n * panelW
	if cap(s.panel) < need || cap(s.ptmp) < need {
		s.panel = make([]float64, need)
		s.ptmp = make([]float64, need)
		s.Grows++
	}
	return s.panel[:need], s.ptmp[:need]
}

// workerSet returns [threads] scratches with s itself as worker 0,
// growing (and retaining) sub-scratches as needed. Called before
// goroutines spawn, so all arena mutation happens on the caller.
func (s *Scratch) workerSet(threads int) []*Scratch {
	if threads < 1 {
		threads = 1
	}
	if cap(s.ws) < threads {
		s.ws = make([]*Scratch, 0, threads)
		s.Grows++
	}
	ws := s.ws[:0]
	ws = append(ws, s)
	for len(ws) < threads {
		if len(ws)-1 >= len(s.subs) {
			s.subs = append(s.subs, &Scratch{})
			s.Grows++
		}
		ws = append(ws, s.subs[len(ws)-1])
	}
	s.ws = ws
	return ws
}

// TotalGrows reports Grows summed over this scratch and every
// sub-scratch the threaded passes have drawn from it.
func (s *Scratch) TotalGrows() int {
	g := s.Grows
	for _, sub := range s.subs {
		g += sub.Grows
	}
	return g
}

// parallelMinElems is the approximation-box volume below which a pass
// stays serial: the goroutine spawn + barrier cost must stay negligible
// against the pass work, and deep (small) levels run serial either way.
const parallelMinElems = 1 << 15

// spanWorkers decides how many goroutines a pass over elems elements
// uses. The split never changes results — lines are independent — only
// which goroutine computes them.
func spanWorkers(threads, elems int) int {
	return par.Workers(threads, elems, parallelMinElems)
}

// Forward applies the full multi-level analysis transform to data in place.
// data is row-major with extent p.Dims().
func (p *Plan) Forward(data []float64) {
	p.ForwardScratch(data, nil)
}

// ForwardScratch is Forward with caller-provided scratch space; s may be
// nil, which allocates temporaries for this call only.
func (p *Plan) ForwardScratch(data []float64, s *Scratch) {
	p.ForwardScratchThreads(data, s, 1)
}

// ForwardScratchThreads is ForwardScratch with each pass split over up to
// threads goroutines (intra-chunk parallelism; threads <= 1 is serial).
// Lines within a pass are independent, so the output is bit-identical at
// every thread count.
func (p *Plan) ForwardScratchThreads(data []float64, s *Scratch, threads int) {
	if s == nil {
		s = &Scratch{}
	}
	ws := s.workerSet(threads)
	for _, st := range p.steps {
		if st.ax && st.nx >= 4 {
			p.passX(data, st, true, ws)
		}
		if st.ay && st.ny >= 4 {
			p.passY(data, st, true, ws)
		}
		if st.az && st.nz >= 4 {
			p.passZ(data, st, true, ws)
		}
	}
}

// Inverse applies the full synthesis transform to data in place, exactly
// undoing Forward.
func (p *Plan) Inverse(data []float64) {
	p.InverseToLevel(data, 0)
}

// InverseScratch is Inverse with caller-provided scratch space.
func (p *Plan) InverseScratch(data []float64, s *Scratch) {
	p.InverseToLevelScratch(data, 0, s)
}

// InverseScratchThreads is InverseScratch with threaded passes.
func (p *Plan) InverseScratchThreads(data []float64, s *Scratch, threads int) {
	p.InverseToLevelScratchThreads(data, 0, s, threads)
}

// InverseToLevel undoes the transform only down to decomposition level
// drop (0 <= drop <= NumLevels): the finest drop levels stay folded, and
// data afterwards holds the level-drop approximation band in the sub-box
// returned by LevelDims(drop). Wavelet hierarchies represent data as
// self-similar coarsenings, which is what enables the multi-resolution
// reconstruction the paper's Section VII describes; drop = 0 is the full
// inverse. The approximation carries the low-pass DC gain of the skipped
// levels: divide by LevelScale(drop) to bring it to data scale.
func (p *Plan) InverseToLevel(data []float64, drop int) grid.Dims {
	return p.InverseToLevelScratch(data, drop, nil)
}

// InverseToLevelScratch is InverseToLevel with caller-provided scratch
// space; s may be nil.
func (p *Plan) InverseToLevelScratch(data []float64, drop int, s *Scratch) grid.Dims {
	return p.InverseToLevelScratchThreads(data, drop, s, 1)
}

// InverseToLevelScratchThreads is InverseToLevelScratch with threaded
// passes; output is bit-identical at every thread count.
func (p *Plan) InverseToLevelScratchThreads(data []float64, drop int, s *Scratch, threads int) grid.Dims {
	if drop < 0 {
		drop = 0
	}
	if drop > len(p.steps) {
		drop = len(p.steps)
	}
	if s == nil {
		s = &Scratch{}
	}
	ws := s.workerSet(threads)
	for i := len(p.steps) - 1; i >= drop; i-- {
		st := p.steps[i]
		if st.az && st.nz >= 4 {
			p.passZ(data, st, false, ws)
		}
		if st.ay && st.ny >= 4 {
			p.passY(data, st, false, ws)
		}
		if st.ax && st.nx >= 4 {
			p.passX(data, st, false, ws)
		}
	}
	return p.LevelDims(drop)
}

// LevelDims returns the extent of the approximation band after drop
// decomposition levels: each axis is ceil-halved once per level in which
// it is active.
func (p *Plan) LevelDims(drop int) grid.Dims {
	return grid.Dims{
		NX: CoarseLen(p.dims.NX, drop),
		NY: CoarseLen(p.dims.NY, drop),
		NZ: CoarseLen(p.dims.NZ, drop),
	}
}

// LevelScale returns the low-pass DC gain carried by the level-drop
// approximation band: sqrt(2) per applied transform per axis (the scaled
// CDF 9/7 low-pass filter has unit norm and sqrt(2) DC gain).
func (p *Plan) LevelScale(drop int) float64 {
	count := 0
	for _, n := range []int{p.dims.NX, p.dims.NY, p.dims.NZ} {
		l := Levels(n)
		if drop < l {
			count += drop
		} else {
			count += l
		}
	}
	return math.Pow(math.Sqrt2, float64(count))
}

// CoarseLen returns the length of a length-n axis after drop levels of
// decomposition (ceil-halved once per level the axis is active in).
func CoarseLen(n, drop int) int {
	k := Levels(n)
	if drop < k {
		k = drop
	}
	for i := 0; i < k; i++ {
		n = (n + 1) / 2
	}
	return n
}

func maxLine(d grid.Dims) int {
	n := d.NX
	if d.NY > n {
		n = d.NY
	}
	if d.NZ > n {
		n = d.NZ
	}
	return n
}

// passX transforms every x-line of the approximation box; lines are
// contiguous in memory, so no panel tiling is needed. The line slice is
// three-index capped once per line so the 1D kernels' inner loops carry
// no aliasing or bounds re-checks.
func (p *Plan) passX(data []float64, st step, fwd bool, ws []*Scratch) {
	lines := st.nz * st.ny
	nx, ny, stride := st.nx, st.ny, p.dims.NX
	par.Spans(lines, spanWorkers(len(ws), lines*nx), func(w, lo, hi int) {
		_, tmp := ws[w].buffers(maxLine(p.dims))
		for li := lo; li < hi; li++ {
			z, y := li/ny, li%ny
			off := (z*p.dims.NY + y) * stride
			s := data[off : off+nx : off+nx]
			if fwd {
				Forward1D(s, tmp)
			} else {
				Inverse1D(s, tmp)
			}
		}
	})
}

// passY transforms every y-line of the approximation box with the blocked
// panel kernels: panelW x-adjacent lines are gathered into a dense ny×w
// panel (contiguous w-element row copies), lifted with unit-stride inner
// loops, and scattered back.
func (p *Plan) passY(data []float64, st step, fwd bool, ws []*Scratch) {
	ny := st.ny
	nblk := (st.nx + panelW - 1) / panelW
	tiles := st.nz * nblk
	par.Spans(tiles, spanWorkers(len(ws), st.nx*st.ny*st.nz), func(wk, lo, hi int) {
		panel, ptmp := ws[wk].panels(ny)
		for ti := lo; ti < hi; ti++ {
			z, b := ti/nblk, ti%nblk
			x0 := b * panelW
			w := st.nx - x0
			if w > panelW {
				w = panelW
			}
			base := z*p.dims.NY*p.dims.NX + x0
			for y := 0; y < ny; y++ {
				copy(panel[y*w:(y+1)*w], data[base+y*p.dims.NX:])
			}
			if fwd {
				forwardPanel(panel, ptmp, ny, w)
			} else {
				inversePanel(panel, ptmp, ny, w)
			}
			for y := 0; y < ny; y++ {
				copy(data[base+y*p.dims.NX:base+y*p.dims.NX+w], panel[y*w:])
			}
		}
	})
}

// passZ transforms every z-line of the approximation box with the blocked
// panel kernels, tiling over x within each y-row.
func (p *Plan) passZ(data []float64, st step, fwd bool, ws []*Scratch) {
	nz := st.nz
	plane := p.dims.NY * p.dims.NX
	nblk := (st.nx + panelW - 1) / panelW
	tiles := st.ny * nblk
	par.Spans(tiles, spanWorkers(len(ws), st.nx*st.ny*st.nz), func(wk, lo, hi int) {
		panel, ptmp := ws[wk].panels(nz)
		for ti := lo; ti < hi; ti++ {
			y, b := ti/nblk, ti%nblk
			x0 := b * panelW
			w := st.nx - x0
			if w > panelW {
				w = panelW
			}
			off := y*p.dims.NX + x0
			for z := 0; z < nz; z++ {
				copy(panel[z*w:(z+1)*w], data[off+z*plane:])
			}
			if fwd {
				forwardPanel(panel, ptmp, nz, w)
			} else {
				inversePanel(panel, ptmp, nz, w)
			}
			for z := 0; z < nz; z++ {
				copy(data[off+z*plane:off+z*plane+w], panel[z*w:])
			}
		}
	})
}

// --- scalar reference path ---------------------------------------------
//
// The pre-blocking gather/scatter passes are retained as the bit-exactness
// oracle for the panel kernels: transform tests assert the blocked passes
// reproduce these results exactly on every dimension shape.

// forwardScalarRef applies the analysis transform with per-line
// gather/scatter passes (the reference implementation).
func (p *Plan) forwardScalarRef(data []float64) {
	line := make([]float64, maxLine(p.dims))
	tmp := make([]float64, maxLine(p.dims))
	ws := []*Scratch{{}}
	for _, st := range p.steps {
		if st.ax && st.nx >= 4 {
			p.passX(data, st, true, ws)
		}
		if st.ay && st.ny >= 4 {
			p.passYScalar(data, st, true, line, tmp)
		}
		if st.az && st.nz >= 4 {
			p.passZScalar(data, st, true, line, tmp)
		}
	}
}

// inverseScalarRef inverts forwardScalarRef.
func (p *Plan) inverseScalarRef(data []float64) {
	line := make([]float64, maxLine(p.dims))
	tmp := make([]float64, maxLine(p.dims))
	ws := []*Scratch{{}}
	for i := len(p.steps) - 1; i >= 0; i-- {
		st := p.steps[i]
		if st.az && st.nz >= 4 {
			p.passZScalar(data, st, false, line, tmp)
		}
		if st.ay && st.ny >= 4 {
			p.passYScalar(data, st, false, line, tmp)
		}
		if st.ax && st.nx >= 4 {
			p.passX(data, st, false, ws)
		}
	}
}

// passYScalar transforms every y-line via per-element gather/scatter.
func (p *Plan) passYScalar(data []float64, st step, fwd bool, line, scratch []float64) {
	ny := st.ny
	s := line[:ny]
	for z := 0; z < st.nz; z++ {
		base := z * p.dims.NY * p.dims.NX
		for x := 0; x < st.nx; x++ {
			for y := 0; y < ny; y++ {
				s[y] = data[base+y*p.dims.NX+x]
			}
			if fwd {
				Forward1D(s, scratch)
			} else {
				Inverse1D(s, scratch)
			}
			for y := 0; y < ny; y++ {
				data[base+y*p.dims.NX+x] = s[y]
			}
		}
	}
}

// passZScalar transforms every z-line via per-element gather/scatter.
func (p *Plan) passZScalar(data []float64, st step, fwd bool, line, scratch []float64) {
	nz := st.nz
	plane := p.dims.NY * p.dims.NX
	s := line[:nz]
	for y := 0; y < st.ny; y++ {
		for x := 0; x < st.nx; x++ {
			off := y*p.dims.NX + x
			for z := 0; z < nz; z++ {
				s[z] = data[off+z*plane]
			}
			if fwd {
				Forward1D(s, scratch)
			} else {
				Inverse1D(s, scratch)
			}
			for z := 0; z < nz; z++ {
				data[off+z*plane] = s[z]
			}
		}
	}
}
