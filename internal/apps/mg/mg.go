// Package mg implements the paper's MG message-passing application: the NAS
// multigrid benchmark [15], a simple multigrid V-cycle solver computing a
// three-dimensional potential field (constant-coefficient Poisson equation
// on a uniform cubical grid with periodic boundaries). It requires a
// power-of-two number of processors. The grid is decomposed in z-planes;
// every stencil sweep exchanges ghost planes with the two z-neighbours, so
// the communication is nearest-neighbour dominated with large, level-
// dependent message sizes, plus a residual-norm reduction rooted at rank 0.
package mg

import (
	"fmt"
	"math"
	"math/bits"

	"commchar/internal/mp"
	"commchar/internal/sim"
)

// Config sizes the problem.
type Config struct {
	N                                   int // finest grid dimension (n³ points), power of two
	Cycles                              int // V-cycles to run
	PreSmooth, PostSmooth, CoarseSmooth int
	// CoarsestN stops coarsening at this grid size (default 4). The
	// hierarchy also stops when a rank would own fewer than two planes,
	// so runs being compared across decompositions should set CoarsestN
	// to pin the hierarchy depth.
	CoarsestN int
	FlopTime  sim.Duration
	RngSeed   uint64
}

// DefaultConfig returns the benchmark problem.
func DefaultConfig() Config {
	return Config{
		N: 32, Cycles: 4,
		PreSmooth: 2, PostSmooth: 2, CoarseSmooth: 40,
		FlopTime: 10 * sim.Nanosecond, RngSeed: 0x36,
	}
}

// Result carries the convergence history.
type Result struct {
	// Norms[i] is the L2 residual norm after i V-cycles (Norms[0] is the
	// initial norm).
	Norms    []float64
	Makespan sim.Time
}

// level is one rank's slab at one grid level.
type level struct {
	n     int // global dimension
	nzLoc int // owned planes
	u     []float64
	rhs   []float64
	res   []float64
	tmp   []float64

	// halo holds the planes this rank sends in its exchanges on this
	// level, double-buffered: exchange k sends halo[k%2]'s top and bottom
	// planes. A neighbour copies exchange k's planes out before it sends
	// its own exchange k+1, which this rank must receive before it starts
	// exchange k+2, so a buffer is never refilled while it may be read.
	halo      [2]struct{ top, bottom []float64 }
	exchanges int
}

func (l *level) idx(z, y, x int) int { return x + l.n*(y+l.n*z) }

func newLevel(n, nzLoc int) *level {
	size := (nzLoc + 2) * n * n
	return &level{
		n: n, nzLoc: nzLoc,
		u: make([]float64, size), rhs: make([]float64, size),
		res: make([]float64, size), tmp: make([]float64, size),
	}
}

// RHS regenerates the deterministic zero-mean right-hand side.
func RHS(cfg Config) []float64 {
	n := cfg.N
	st := sim.NewStream(cfg.RngSeed)
	f := make([]float64, n*n*n)
	var mean float64
	for i := range f {
		f[i] = st.Float64()*2 - 1
		mean += f[i]
	}
	mean /= float64(len(f))
	for i := range f {
		f[i] -= mean
	}
	return f
}

// Run executes the solver on the world with the given rank count.
func Run(w *mp.World, cfg Config, procs int) (*Result, error) {
	if cfg.N < 4 || bits.OnesCount(uint(cfg.N)) != 1 {
		return nil, fmt.Errorf("mg: grid %d must be a power of two >= 4", cfg.N)
	}
	if bits.OnesCount(uint(procs)) != 1 {
		return nil, fmt.Errorf("mg: %d processors (power of two required)", procs)
	}
	if cfg.N/procs < 2 {
		return nil, fmt.Errorf("mg: grid %d too small for %d processors", cfg.N, procs)
	}
	if cfg.Cycles < 1 {
		cfg.Cycles = 1
	}
	if cfg.FlopTime <= 0 {
		cfg.FlopTime = DefaultConfig().FlopTime
	}
	if cfg.CoarsestN < 4 {
		cfg.CoarsestN = 4
	}
	rhs := RHS(cfg)

	res := &Result{}
	makespan, err := w.Run(func(r *mp.Rank) {
		s := &solver{r: r, cfg: cfg, procs: procs}
		// Build the level hierarchy: coarsen while each rank keeps at
		// least two whole planes (restriction needs plane pairs).
		for n := cfg.N; n >= cfg.CoarsestN && n/procs >= 2; n /= 2 {
			s.levels = append(s.levels, newLevel(n, n/procs))
		}
		// Load the owned slab of the RHS.
		f := s.levels[0]
		for zl := 1; zl <= f.nzLoc; zl++ {
			z := r.ID()*f.nzLoc + zl - 1
			for y := 0; y < f.n; y++ {
				for x := 0; x < f.n; x++ {
					f.rhs[f.idx(zl, y, x)] = rhs[x+cfg.N*(y+cfg.N*z)]
				}
			}
		}

		norms := []float64{s.residualNorm(0)}
		for c := 0; c < cfg.Cycles; c++ {
			s.vcycle(0)
			norms = append(norms, s.residualNorm(0))
		}
		if r.ID() == 0 {
			res.Norms = norms
		}
	})
	if err != nil {
		return nil, err
	}
	res.Makespan = makespan
	return res, nil
}

type solver struct {
	r      *mp.Rank
	cfg    Config
	procs  int
	levels []*level
}

// exchange refreshes the ghost planes of the given field at level li.
func (s *solver) exchange(li int, field []float64) {
	l := s.levels[li]
	r := s.r
	plane := l.n * l.n
	if s.procs == 1 {
		// Periodic wrap within the single rank.
		copy(field[0:plane], field[l.nzLoc*plane:(l.nzLoc+1)*plane])
		copy(field[(l.nzLoc+1)*plane:(l.nzLoc+2)*plane], field[plane:2*plane])
		return
	}
	up := (r.ID() + 1) % s.procs
	down := (r.ID() - 1 + s.procs) % s.procs
	tagUp, tagDown := 2*li, 2*li+1
	bytes := plane * 8

	// The planes go out through a halo buffer, so a payload stays as
	// sent until its receiver has copied it (see level.halo).
	out := &l.halo[l.exchanges%2]
	l.exchanges++
	if out.top == nil {
		out.top, out.bottom = make([]float64, plane), make([]float64, plane)
	}
	copy(out.top, field[l.nzLoc*plane:(l.nzLoc+1)*plane])
	copy(out.bottom, field[plane:2*plane])
	r.Send(up, tagUp, bytes, out.top)        // my top plane: up's bottom ghost
	r.Send(down, tagDown, bytes, out.bottom) // my bottom plane: down's top ghost
	_, fromDown := r.Recv(down, tagUp)       // down's top plane: my bottom ghost
	_, fromUp := r.Recv(up, tagDown)         // up's bottom plane: my top ghost
	copy(field[0:plane], fromDown.([]float64))
	copy(field[(l.nzLoc+1)*plane:(l.nzLoc+2)*plane], fromUp.([]float64))
}

// smooth performs one weighted-Jacobi sweep on level li.
func (s *solver) smooth(li int) {
	l := s.levels[li]
	s.exchange(li, l.u)
	const omega = 0.8
	n := l.n
	for z := 1; z <= l.nzLoc; z++ {
		for y := 0; y < n; y++ {
			ym, yp := (y-1+n)%n, (y+1)%n
			for x := 0; x < n; x++ {
				xm, xp := (x-1+n)%n, (x+1)%n
				nb := l.u[l.idx(z, y, xm)] + l.u[l.idx(z, y, xp)] +
					l.u[l.idx(z, ym, x)] + l.u[l.idx(z, yp, x)] +
					l.u[l.idx(z-1, y, x)] + l.u[l.idx(z+1, y, x)]
				jac := (l.rhs[l.idx(z, y, x)] + nb) / 6
				l.tmp[l.idx(z, y, x)] = (1-omega)*l.u[l.idx(z, y, x)] + omega*jac
			}
		}
	}
	interior := l.n * l.n
	copy(l.u[interior:(l.nzLoc+1)*interior], l.tmp[interior:(l.nzLoc+1)*interior])
	s.r.Compute(s.cfg.FlopTime * sim.Duration(8*l.nzLoc*n*n))
}

// residual computes res = rhs - A·u on level li (A = -∇², 7-point).
func (s *solver) residual(li int) {
	l := s.levels[li]
	s.exchange(li, l.u)
	n := l.n
	for z := 1; z <= l.nzLoc; z++ {
		for y := 0; y < n; y++ {
			ym, yp := (y-1+n)%n, (y+1)%n
			for x := 0; x < n; x++ {
				xm, xp := (x-1+n)%n, (x+1)%n
				nb := l.u[l.idx(z, y, xm)] + l.u[l.idx(z, y, xp)] +
					l.u[l.idx(z, ym, x)] + l.u[l.idx(z, yp, x)] +
					l.u[l.idx(z-1, y, x)] + l.u[l.idx(z+1, y, x)]
				au := 6*l.u[l.idx(z, y, x)] - nb
				l.res[l.idx(z, y, x)] = l.rhs[l.idx(z, y, x)] - au
			}
		}
	}
	s.r.Compute(s.cfg.FlopTime * sim.Duration(8*l.nzLoc*n*n))
}

// residualNorm returns the global L2 norm of the residual at level li
// (all ranks receive it via allreduce).
func (s *solver) residualNorm(li int) float64 {
	s.residual(li)
	l := s.levels[li]
	var local float64
	for z := 1; z <= l.nzLoc; z++ {
		for y := 0; y < l.n; y++ {
			for x := 0; x < l.n; x++ {
				v := l.res[l.idx(z, y, x)]
				local += v * v
			}
		}
	}
	sum := s.r.Allreduce(8, local, func(a, b any) any { return a.(float64) + b.(float64) })
	return math.Sqrt(sum.(float64))
}

// restrict averages 2×2×2 fine residual cells into the coarse RHS.
func (s *solver) restrictTo(li int) {
	fine, coarse := s.levels[li], s.levels[li+1]
	for i := range coarse.u {
		coarse.u[i] = 0
		coarse.rhs[i] = 0
	}
	nC := coarse.n
	for zc := 1; zc <= coarse.nzLoc; zc++ {
		zf := 2*zc - 1 // fine local plane of the first child
		for yc := 0; yc < nC; yc++ {
			for xc := 0; xc < nC; xc++ {
				var sum float64
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							sum += fine.res[fine.idx(zf+dz, 2*yc+dy, 2*xc+dx)]
						}
					}
				}
				// Scale by 4: restriction averaging (1/8) times the h²
				// factor between grids (×4 for -∇² with h_c = 2h_f),
				// folded into one constant since h is unit at the finest
				// level and only ratios matter for convergence.
				coarse.rhs[coarse.idx(zc, yc, xc)] = sum / 2
			}
		}
	}
	s.r.Compute(s.cfg.FlopTime * sim.Duration(coarse.nzLoc*nC*nC*8))
}

// prolong adds the piecewise-constant interpolation of the coarse
// correction into the fine solution.
func (s *solver) prolong(li int) {
	fine, coarse := s.levels[li], s.levels[li+1]
	nC := coarse.n
	for zc := 1; zc <= coarse.nzLoc; zc++ {
		zf := 2*zc - 1
		for yc := 0; yc < nC; yc++ {
			for xc := 0; xc < nC; xc++ {
				v := coarse.u[coarse.idx(zc, yc, xc)]
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							fine.u[fine.idx(zf+dz, 2*yc+dy, 2*xc+dx)] += v
						}
					}
				}
			}
		}
	}
	s.r.Compute(s.cfg.FlopTime * sim.Duration(coarse.nzLoc*nC*nC*8))
}

// vcycle runs one V-cycle rooted at level li.
func (s *solver) vcycle(li int) {
	if li == len(s.levels)-1 {
		for i := 0; i < s.cfg.CoarseSmooth; i++ {
			s.smooth(li)
		}
		return
	}
	for i := 0; i < s.cfg.PreSmooth; i++ {
		s.smooth(li)
	}
	s.residual(li)
	s.restrictTo(li)
	s.vcycle(li + 1)
	s.prolong(li)
	for i := 0; i < s.cfg.PostSmooth; i++ {
		s.smooth(li)
	}
}
