package ilp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// The simplex implementation solves LPs of the internal standard form
//
//	minimize   c·x
//	subject to A·x (op) b,   lo <= x <= hi
//
// using a bounded-variable revised primal simplex with an explicitly
// maintained basis inverse. Inequalities become equalities via one
// slack column per row; rows whose slack cannot absorb the initial
// residual receive an artificial column, and a phase-1 objective drives
// total artificial mass to zero before the real objective is optimized.

const (
	feasTol  = 1e-7 // bound/feasibility tolerance
	pivotTol = 1e-9 // minimum acceptable pivot magnitude
	dualTol  = 1e-7 // reduced-cost optimality tolerance
	// stallLimit is the number of non-improving iterations tolerated
	// before switching to Bland's rule to escape degenerate cycling.
	stallLimit = 256
)

// refactorEvery bounds how many pivots may elapse between full
// recomputations of the basis inverse.
const refactorEvery = 128

var errSingularBasis = errors.New("ilp: singular basis during refactorization")

// errNumerical signals accumulated numerical drift; the driver retries
// with a tighter refactorization cadence.
var errNumerical = errors.New("ilp: numerical drift detected")

// errDeadline signals that Options.TimeLimit expired inside a simplex
// run. The branch-and-bound drivers translate it into a StatusLimit
// stop; without this in-LP check a single degenerate relaxation (the
// root LP of a heavily reweighted warm re-solve is the canonical case)
// can overrun the time limit by minutes before any between-node check
// fires.
var errDeadline = errors.New("ilp: time limit reached during an LP solve")

// deadlineCheckEvery is how many simplex iterations elapse between
// wall-clock reads in iterate — frequent enough that an LP overshoots
// the deadline by at most a few milliseconds, rare enough that the
// time.Now() cost is invisible.
const deadlineCheckEvery = 64

// spCol is one sparse column of the constraint matrix.
type spCol struct {
	ind []int32
	val []float64
}

// standardForm is a model lowered for the simplex: structural columns
// first, one slack column per row appended by the solver itself.
type standardForm struct {
	nStruct int       // number of structural (model) columns
	m       int       // number of rows
	cols    []spCol   // structural columns only, length nStruct
	ops     []Op      // per-row comparison before slack introduction
	b       []float64 // right-hand sides (row-scaled)
	lo, hi  []float64 // structural bounds, length nStruct
	cost    []float64 // structural minimization costs
	objK    float64   // objective constant
	intVar  []bool    // structural integrality markers
	branch  []int     // branching priority per structural column
	// deadline, when set, aborts any simplex run past it with
	// errDeadline. Solve stamps it once before the root LP; every
	// worker reads it immutably afterwards.
	deadline time.Time
	// dualOK enables dual-simplex child re-solves (set from
	// Options.DisableDual by Solve).
	dualOK bool
	// pre records the root presolve's reductions for Solution reporting.
	pre PresolveStats
}

// lowerModel converts a Model into standardForm, negating the objective
// for maximization and applying row equilibration scaling. When
// presolve is set the fixpoint reduction pass (presolve.go) runs over
// the gathered rows before the columns are built.
func lowerModel(m *Model, presolve bool) (*standardForm, error) {
	sf := &standardForm{
		nStruct: len(m.vars),
		m:       len(m.constrs),
		cols:    make([]spCol, len(m.vars)),
		ops:     make([]Op, len(m.constrs)),
		b:       make([]float64, len(m.constrs)),
		lo:      make([]float64, len(m.vars)),
		hi:      make([]float64, len(m.vars)),
		cost:    make([]float64, len(m.vars)),
		intVar:  make([]bool, len(m.vars)),
		branch:  make([]int, len(m.vars)),
	}
	for j, v := range m.vars {
		sf.lo[j], sf.hi[j] = v.lo, v.hi
		sf.intVar[j] = v.typ != Continuous
		sf.branch[j] = v.pri
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	for v, c := range m.obj.coef {
		sf.cost[v] = sign * c
	}
	sf.objK = sign * m.obj.konst
	// Gather rows into the presolve intermediate form, dropping
	// constant rows after a direct satisfiability check.
	preRows := make([]preRow, 0, len(m.constrs))
	for _, c := range m.constrs {
		nonzero := false
		for _, coef := range c.expr.coef {
			if coef != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			// Constant row: check satisfiability directly, then drop.
			ok := true
			switch c.op {
			case LE:
				ok = 0 <= c.rhs+feasTol
			case GE:
				ok = 0 >= c.rhs-feasTol
			case EQ:
				ok = almostEqual(0, c.rhs, feasTol)
			}
			if !ok {
				return nil, fmt.Errorf("ilp: constraint %q is trivially infeasible", c.name)
			}
			continue
		}
		row := preRow{
			name: c.name,
			vars: make([]int32, 0, c.expr.Len()),
			coef: make([]float64, 0, c.expr.Len()),
			op:   c.op,
			rhs:  c.rhs,
		}
		c.expr.Terms(func(v Var, coef float64) {
			row.vars = append(row.vars, int32(v))
			row.coef = append(row.coef, coef)
		})
		preRows = append(preRows, row)
	}
	if presolve {
		stats, err := presolveFixpoint(sf, preRows)
		if err != nil {
			return nil, err
		}
		sf.pre = stats
	}
	// Build the scaled columns from the surviving rows (substituted
	// terms have zero coefficients and are skipped; a row left with no
	// terms was classified by the presolve activity checks already).
	rows := 0
	for r := range preRows {
		pr := &preRows[r]
		if pr.dropped {
			continue
		}
		// Row scaling: divide by the largest coefficient magnitude.
		scale := 0.0
		for _, coef := range pr.coef {
			scale = math.Max(scale, math.Abs(coef))
		}
		if scale == 0 {
			// All terms substituted away: the activity checks in
			// presolveRow proved it satisfiable, or it would have
			// errored; nothing left to enforce.
			continue
		}
		i := rows
		rows++
		sf.ops[i] = pr.op
		sf.b[i] = pr.rhs / scale
		for k, v := range pr.vars {
			if pr.coef[k] == 0 {
				continue
			}
			col := &sf.cols[v]
			col.ind = append(col.ind, int32(i))
			col.val = append(col.val, pr.coef[k]/scale)
		}
	}
	sf.m = rows
	sf.ops = sf.ops[:rows]
	sf.b = sf.b[:rows]
	return sf, nil
}

// clone duplicates the bound vectors (the only per-node mutable state)
// while sharing the immutable matrix.
func (sf *standardForm) cloneBounds() (lo, hi []float64) {
	lo = append([]float64(nil), sf.lo...)
	hi = append([]float64(nil), sf.hi...)
	return lo, hi
}

const (
	nbLower int8 = iota
	nbUpper
	inBasis
)

// lpWorkspace holds the per-solve simplex buffers so repeated LP solves
// (branch and bound runs thousands against one standardForm) reuse
// memory instead of hammering the allocator. A workspace is sized for
// one standardForm and is NOT safe for concurrent use: each
// branch-and-bound worker owns a private one, which is the only
// simplex state shared between a node and its successor on the same
// worker. The cached slack columns are immutable after construction.
type lpWorkspace struct {
	cols   []spCol
	lo, hi []float64
	cost   []float64 // phase-2 cost buffer
	p1     []float64 // setup/phase-1 cost buffer
	status []int8
	basis  []int32
	binv   [][]float64
	xB     []float64
	resid  []float64
	y, w   []float64
	bmat   [][]float64 // kernel refactorization scratch, [K | I] augmented (see kernelScratch)
	slack  []spCol     // cached unit slack columns, one per row

	// Block-triangular refactorization scratch (refactorizeBasis):
	// singleton-column/home-row matching and the kernel index maps.
	pivRow []int32
	rowPos []int32
	kq     []int32
	kcols  []int32
	krows  []int32
	dinv   []float64

	// Delta-node materialization scratch (branchbound.go): the node
	// chain's bound deltas are applied over the root bounds here, so
	// child nodes never clone full bound vectors.
	nodeLo, nodeHi []float64
	chain          []*node

	// Dual re-solve state. basisValid reports that basis/status/binv
	// describe the optimal basis of the most recent solve on this
	// workspace; resident is the snapshot captured from that state (nil
	// unless captureBasis ran after the solve). When a dual re-solve
	// receives snap == resident the refactorization is skipped — the
	// inverse is already in the workspace. pivotAge counts pivots since
	// the last refactorization ACROSS solves, so a long plunge chain of
	// cheap dual re-solves still refactorizes on the usual cadence.
	basisValid bool
	resident   *basisSnapshot
	pivotAge   int
	dcand      []dualCand // dual ratio-test candidate scratch
	nzIdx      []int32    // pivotBinv sparse pivot-row index scratch
}

// invalidate forgets any resident basis. Plunge drivers call it at
// every chain start so basis residency is a structural property of the
// search tree (parent-to-follow-child on one worker) rather than an
// artifact of which chains a worker happened to run — the property
// that keeps Deterministic solves bit-identical across thread counts.
func (ws *lpWorkspace) invalidate() {
	ws.resident = nil
	ws.basisValid = false
}

// newWorkspace allocates buffers for solving LPs over sf. Capacities
// cover the worst case of one artificial column per row, except the
// kernel refactorization scratch, which kernelScratch sizes on demand.
func newWorkspace(sf *standardForm) *lpWorkspace {
	m := sf.m
	capN := sf.nStruct + 2*m
	ws := &lpWorkspace{
		cols:   make([]spCol, 0, capN),
		lo:     make([]float64, 0, capN),
		hi:     make([]float64, 0, capN),
		cost:   make([]float64, 0, capN),
		p1:     make([]float64, 0, capN),
		status: make([]int8, 0, capN),
		basis:  make([]int32, m),
		binv:   make([][]float64, m),
		xB:     make([]float64, m),
		resid:  make([]float64, m),
		y:      make([]float64, m),
		w:      make([]float64, m),
		slack:  make([]spCol, m),
		pivRow: make([]int32, m),
		rowPos: make([]int32, m),
		kq:     make([]int32, m),
		kcols:  make([]int32, 0, m),
		krows:  make([]int32, 0, m),
		dinv:   make([]float64, m),
	}
	for i := 0; i < m; i++ {
		ws.binv[i] = make([]float64, m)
		ws.slack[i] = spCol{ind: []int32{int32(i)}, val: []float64{1}}
	}
	ws.nodeLo = make([]float64, sf.nStruct)
	ws.nodeHi = make([]float64, sf.nStruct)
	return ws
}

type simplex struct {
	sf        *standardForm
	ws        *lpWorkspace
	n         int // total columns: struct + slack + artificial
	nSlack    int
	cols      []spCol // all columns
	lo, hi    []float64
	cost      []float64
	status    []int8
	basis     []int32
	binv      [][]float64
	xB        []float64
	iters     int
	pivots    int // pivots since last refactorization
	refEvery  int // refactorization cadence for this attempt
	refactors int // total basis refactorizations
}

type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
)

// lpCounts reports per-LP-solve effort (feeds Solution totals and the
// branch-and-bound progress hook). iters counts every simplex
// iteration; dual is the subset spent in dual re-solves; fallbacks
// counts dual re-solves abandoned to the primal path.
type lpCounts struct {
	iters     int
	dual      int
	refactors int
	fallbacks int
}

func (c *lpCounts) add(o lpCounts) {
	c.iters += o.iters
	c.dual += o.dual
	c.refactors += o.refactors
	c.fallbacks += o.fallbacks
}

// solveLP solves the standard form with the given structural bounds
// (which may be tighter than sf's own, e.g. from branch and bound).
// It returns the LP status, objective value (minimization sense,
// without objK), structural solution values, and effort counters
// (simplex iterations and basis refactorizations).
// Numerical drift detected at a refactorization triggers a retry with
// a tighter refactorization cadence.
// hint, when non-nil, is a (near-)feasible point — typically the
// parent node's LP solution — used to warm the initial nonbasic bound
// assignment.
// snap, when non-nil, is a dual-feasible basis inherited from the
// parent node; the dual-simplex re-solver (dual.go) is tried first and
// the primal-with-artificials path below is the counted fallback.
// ws supplies reusable buffers; nil allocates a fresh workspace (one
// per branch-and-bound worker is the intended steady state).
func solveLP(sf *standardForm, lo, hi []float64, iterLimit int, hint []float64, snap *basisSnapshot, ws *lpWorkspace) (lpStatus, float64, []float64, lpCounts, error) {
	if ws == nil {
		ws = newWorkspace(sf)
	}
	total := lpCounts{}
	if snap != nil && sf.dualOK {
		st, obj, x, counts, ok, err := solveDual(sf, lo, hi, iterLimit, snap, ws)
		total.add(counts)
		if err != nil {
			return st, obj, x, total, err // errDeadline
		}
		if ok {
			return st, obj, x, total, nil
		}
		total.fallbacks++
	}
	for _, cadence := range []int{refactorEvery, 16, 4, 1} {
		st, obj, x, counts, err := solveLPOnce(sf, lo, hi, iterLimit, cadence, hint, ws)
		total.iters += counts.iters
		total.refactors += counts.refactors
		if errors.Is(err, errNumerical) || errors.Is(err, errSingularBasis) {
			continue
		}
		return st, obj, x, total, err
	}
	return lpInfeasible, 0, nil, total, errNumerical
}

func solveLPOnce(sf *standardForm, lo, hi []float64, iterLimit, cadence int, hint []float64, ws *lpWorkspace) (lpStatus, float64, []float64, lpCounts, error) {
	ws.invalidate() // the run below overwrites any resident basis
	m := sf.m
	s := &simplex{
		sf:       sf,
		ws:       ws,
		nSlack:   m,
		basis:    ws.basis[:m],
		xB:       ws.xB[:m],
		refEvery: cadence,
	}
	n := sf.nStruct + m
	s.cols = ws.cols[:n]
	copy(s.cols, sf.cols)
	s.lo = ws.lo[:n]
	s.hi = ws.hi[:n]
	// The setup phase appends artificial columns to s.cost; phase 1
	// then flips their costs to 1 in place, so the buffer must start
	// zeroed. Phase 2 swaps in the separately-buffered model costs.
	s.cost = ws.p1[:n]
	for i := range s.cost {
		s.cost[i] = 0
	}
	s.status = ws.status[:n]
	copy(s.lo, lo)
	copy(s.hi, hi)
	for j := 0; j < sf.nStruct; j++ {
		if s.lo[j] > s.hi[j]+feasTol {
			return lpInfeasible, 0, nil, lpCounts{}, nil
		}
		// Nonbasic structurals start at the bound nearest the hint
		// (the parent LP solution in branch and bound), else lower.
		s.status[j] = nbLower
		if hint != nil && j < len(hint) && !math.IsInf(s.hi[j], 1) &&
			math.Abs(hint[j]-s.hi[j]) < math.Abs(hint[j]-s.lo[j]) {
			s.status[j] = nbUpper
		}
	}
	// Slack columns (cached in the workspace; never mutated).
	for i := 0; i < m; i++ {
		j := sf.nStruct + i
		s.cols[j] = ws.slack[i]
		switch sf.ops[i] {
		case LE:
			s.lo[j], s.hi[j] = 0, Inf
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
	}
	s.n = n
	// Initial basis: slack where the residual fits its bounds,
	// otherwise an artificial column absorbing the residual.
	resid := ws.resid[:m]
	copy(resid, sf.b)
	for j := 0; j < sf.nStruct; j++ {
		x := s.nbValue(j)
		if x == 0 {
			continue
		}
		col := &s.cols[j]
		for k, r := range col.ind {
			resid[r] -= col.val[k] * x
		}
	}
	s.binv = ws.binv[:m]
	anyArtificial := false
	for i := 0; i < m; i++ {
		row := s.binv[i]
		for k := range row {
			row[k] = 0
		}
		j := sf.nStruct + i
		r := resid[i]
		if r >= s.lo[j]-feasTol && r <= s.hi[j]+feasTol {
			s.basis[i] = int32(j)
			s.status[j] = inBasis
			s.xB[i] = r
			s.binv[i][i] = 1
			continue
		}
		// Slack nonbasic at its nearest bound; artificial takes the rest.
		sval := math.Min(math.Max(r, s.lo[j]), s.hi[j])
		if math.IsInf(sval, 0) {
			// Cannot happen: the violated bound is always finite.
			return lpInfeasible, 0, nil, lpCounts{}, fmt.Errorf("ilp: internal: infinite slack bound hit on row %d", i)
		}
		if sval == s.lo[j] {
			s.status[j] = nbLower
		} else {
			s.status[j] = nbUpper
		}
		rr := r - sval
		sign := 1.0
		if rr < 0 {
			sign = -1
		}
		a := len(s.cols)
		s.cols = append(s.cols, spCol{ind: []int32{int32(i)}, val: []float64{sign}})
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.cost = append(s.cost, 0)
		s.status = append(s.status, inBasis)
		s.basis[i] = int32(a)
		s.xB[i] = math.Abs(rr)
		s.binv[i][i] = sign
		anyArtificial = true
	}
	s.n = len(s.cols)

	if anyArtificial {
		// Phase 1: minimize total artificial mass. s.cost is the zeroed
		// p1 buffer, so only the artificial entries need setting.
		for j := sf.nStruct + m; j < s.n; j++ {
			s.cost[j] = 1
		}
		st, err := s.iterate(iterLimit)
		if err != nil {
			return lpInfeasible, 0, nil, s.counts(), err
		}
		if st == lpUnbounded {
			return lpInfeasible, 0, nil, s.counts(), errors.New("ilp: internal: phase-1 unbounded")
		}
		if s.objValue() > 1e-6 {
			return lpInfeasible, 0, nil, s.counts(), nil
		}
		// Pin artificials at zero.
		for j := sf.nStruct + m; j < s.n; j++ {
			s.hi[j] = 0
		}
	}
	// Phase 2 costs: structural costs from the model; slacks and
	// artificials cost zero.
	s.cost = ws.cost[:0]
	s.cost = append(s.cost, sf.cost...)
	for len(s.cost) < s.n {
		s.cost = append(s.cost, 0)
	}

	st, err := s.iterate(iterLimit)
	if err != nil {
		return lpInfeasible, 0, nil, s.counts(), err
	}
	if st == lpUnbounded {
		return lpUnbounded, 0, nil, s.counts(), nil
	}
	// Extract structural values.
	if err := s.refactorize(); err != nil {
		return lpInfeasible, 0, nil, s.counts(), err
	}
	if debugChecks {
		for i, bj := range s.basis {
			if s.xB[i] < s.lo[bj]-1e-6 || s.xB[i] > s.hi[bj]+1e-6 {
				panic(fmt.Sprintf("ilp: basic col %d (row %d) = %g outside [%g, %g]", bj, i, s.xB[i], s.lo[bj], s.hi[bj]))
			}
		}
	}
	x := make([]float64, sf.nStruct)
	for j := 0; j < sf.nStruct; j++ {
		if s.status[j] != inBasis {
			x[j] = s.nbValue(j)
		}
	}
	for i, bj := range s.basis {
		if int(bj) < sf.nStruct {
			x[bj] = s.xB[i]
		}
	}
	obj := 0.0
	for j := 0; j < sf.nStruct; j++ {
		obj += sf.cost[j] * x[j]
	}
	// The extraction refactorized, so the workspace now holds a clean
	// optimal basis a child's dual re-solve can inherit.
	ws.basisValid = true
	ws.pivotAge = 0
	return lpOptimal, obj, x, s.counts(), nil
}

// nbValue returns the value a nonbasic column takes at its current bound.
func (s *simplex) nbValue(j int) float64 {
	if s.status[j] == nbUpper {
		return s.hi[j]
	}
	return s.lo[j]
}

// objValue computes the current objective under s.cost.
func (s *simplex) objValue() float64 {
	obj := 0.0
	for j := 0; j < s.n; j++ {
		if s.status[j] != inBasis {
			obj += s.cost[j] * s.nbValue(j)
		}
	}
	for i, bj := range s.basis {
		obj += s.cost[bj] * s.xB[i]
	}
	return obj
}

// iterate runs primal simplex iterations until optimality,
// unboundedness, or the iteration limit.
func (s *simplex) iterate(iterLimit int) (lpStatus, error) {
	m := s.sf.m
	y := s.ws.y[:m]
	w := s.ws.w[:m]
	bland := false
	stall := 0
	lastObj := math.Inf(1)
	// Columns banned after a near-singular pivot attempt; cleared on
	// the next successful step.
	banned := make(map[int]bool)
	retriedAfterBan := false
	for {
		if iterLimit > 0 && s.iters >= iterLimit {
			return lpOptimal, fmt.Errorf("ilp: simplex iteration limit (%d) exceeded", iterLimit)
		}
		if !s.sf.deadline.IsZero() && s.iters%deadlineCheckEvery == 0 &&
			time.Now().After(s.sf.deadline) {
			return lpOptimal, errDeadline
		}
		s.iters++
		// Duals: y = cB^T · Binv.
		for i := 0; i < m; i++ {
			y[i] = 0
		}
		for k := 0; k < m; k++ {
			cb := s.cost[s.basis[k]]
			if cb == 0 {
				continue
			}
			row := s.binv[k]
			for i := 0; i < m; i++ {
				y[i] += cb * row[i]
			}
		}
		// Pricing.
		enter := -1
		best := dualTol
		for j := 0; j < s.n; j++ {
			st := s.status[j]
			if st == inBasis || banned[j] {
				continue
			}
			if s.lo[j] == s.hi[j] { // fixed column can never improve
				continue
			}
			col := &s.cols[j]
			d := s.cost[j]
			for k, r := range col.ind {
				d -= y[r] * col.val[k]
			}
			var viol float64
			if st == nbLower && d < -dualTol {
				viol = -d
			} else if st == nbUpper && d > dualTol {
				viol = d
			} else {
				continue
			}
			if bland {
				enter = j
				break
			}
			if viol > best {
				best = viol
				enter = j
			}
		}
		if enter == -1 {
			if len(banned) > 0 && !retriedAfterBan {
				// Re-examine banned columns once against a freshly
				// refactorized basis before declaring optimality.
				if err := s.refactorize(); err != nil {
					return lpOptimal, err
				}
				banned = make(map[int]bool)
				retriedAfterBan = true
				continue
			}
			return lpOptimal, nil
		}
		// Direction w = Binv · A_enter.
		for i := 0; i < m; i++ {
			w[i] = 0
		}
		colE := &s.cols[enter]
		for k, r := range colE.ind {
			v := colE.val[k]
			for i := 0; i < m; i++ {
				w[i] += s.binv[i][r] * v
			}
		}
		sigma := 1.0
		if s.status[enter] == nbUpper {
			sigma = -1
		}
		// Ratio test: x_enter moves by sigma*t; xB moves by -sigma*t*w.
		tMax := s.hi[enter] - s.lo[enter]
		leave := -1
		leaveToUpper := false
		leavePiv := 0.0
		for i := 0; i < m; i++ {
			delta := -sigma * w[i]
			bj := s.basis[i]
			var limit float64
			var toUpper bool
			switch {
			case delta > pivotTol:
				if math.IsInf(s.hi[bj], 1) {
					continue
				}
				limit = (s.hi[bj] - s.xB[i]) / delta
				toUpper = true
			case delta < -pivotTol:
				if math.IsInf(s.lo[bj], -1) {
					continue
				}
				limit = (s.lo[bj] - s.xB[i]) / delta
				toUpper = false
			default:
				continue
			}
			if limit < 0 {
				limit = 0 // numerical guard: basic vars are feasible by invariant
			}
			if limit < tMax-feasTol || (limit < tMax+feasTol && leave >= 0 && math.Abs(w[i]) > math.Abs(leavePiv)) {
				if limit < tMax-feasTol {
					tMax = limit
				}
				leave = i
				leaveToUpper = toUpper
				leavePiv = w[i]
			}
		}
		if math.IsInf(tMax, 1) {
			return lpUnbounded, nil
		}
		if bland && leave >= 0 {
			// Bland's anti-cycling rule needs the leaving tie broken
			// by smallest variable index among minimum-ratio rows.
			bestIdx := int32(1 << 30)
			for i := 0; i < m; i++ {
				delta := -sigma * w[i]
				bj := s.basis[i]
				var limit float64
				var toUpper bool
				switch {
				case delta > pivotTol:
					if math.IsInf(s.hi[bj], 1) {
						continue
					}
					limit = (s.hi[bj] - s.xB[i]) / delta
					toUpper = true
				case delta < -pivotTol:
					if math.IsInf(s.lo[bj], -1) {
						continue
					}
					limit = (s.lo[bj] - s.xB[i]) / delta
					toUpper = false
				default:
					continue
				}
				if limit < 0 {
					limit = 0
				}
				if limit <= tMax+feasTol && bj < bestIdx {
					bestIdx = bj
					leave = i
					leaveToUpper = toUpper
					leavePiv = w[i]
				}
			}
		}
		if leave >= 0 && math.Abs(w[leave]) < 1e-7 {
			// Committing this pivot would (nearly) singularize the
			// basis: ban the entering column and re-price.
			banned[enter] = true
			continue
		}
		// Apply the step.
		for i := 0; i < m; i++ {
			s.xB[i] -= sigma * tMax * w[i]
		}
		if leave == -1 {
			// Bound flip: entering jumps to its opposite bound.
			if s.status[enter] == nbLower {
				s.status[enter] = nbUpper
			} else {
				s.status[enter] = nbLower
			}
		} else {
			if len(banned) > 0 {
				banned = make(map[int]bool)
				retriedAfterBan = false
			}
			enterVal := s.nbValue(enter) + sigma*tMax
			out := s.basis[leave]
			if leaveToUpper {
				s.status[out] = nbUpper
			} else {
				s.status[out] = nbLower
			}
			s.status[enter] = inBasis
			s.basis[leave] = int32(enter)
			s.xB[leave] = enterVal
			// Pivot the explicit inverse.
			if math.Abs(w[leave]) < pivotTol {
				if err := s.refactorize(); err != nil {
					return lpOptimal, err
				}
				continue
			}
			s.pivotBinv(leave, w)
			s.pivots++
			if s.pivots >= s.refEvery {
				if err := s.refactorize(); err != nil {
					return lpOptimal, err
				}
			}
		}
		// Degeneracy bookkeeping.
		obj := s.objValue()
		if obj < lastObj-1e-9 {
			lastObj = obj
			stall = 0
			bland = false
		} else {
			stall++
			if stall > stallLimit {
				bland = true
			}
		}
	}
}

// counts snapshots this attempt's effort counters.
func (s *simplex) counts() lpCounts {
	return lpCounts{iters: s.iters, refactors: s.refactors}
}

// refactorize recomputes the basis inverse and basic values from
// scratch, then checks the recomputed basics against their bounds: a
// primal iterate must still be (near-)feasible, and drift past the
// tolerance aborts the attempt with errNumerical.
func (s *simplex) refactorize() error {
	if debugChecks {
		old := append([]float64(nil), s.xB...)
		defer func() {
			for i := range old {
				if math.Abs(old[i]-s.xB[i]) > 1e-5 {
					panic(fmt.Sprintf("ilp: iter %d: incremental xB[%d] (col %d) = %g but true value %g", s.iters, i, s.basis[i], old[i], s.xB[i]))
				}
			}
		}()
	}
	if err := s.refactorizeBasis(); err != nil {
		return err
	}
	// Drift check: the recomputed basics must still be (near-)feasible;
	// incremental updates through small pivots can silently walk the
	// iterate out of the feasible region.
	for i, bj := range s.basis {
		if s.xB[i] < s.lo[bj]-1e-6 || s.xB[i] > s.hi[bj]+1e-6 {
			if s.refEvery <= 1 && s.xB[i] > s.lo[bj]-1e-4 && s.xB[i] < s.hi[bj]+1e-4 {
				// Sub-1e-4 residue from bound snapping under per-pivot
				// refactorization: clamp and continue.
				s.xB[i] = math.Min(math.Max(s.xB[i], s.lo[bj]), s.hi[bj])
				continue
			}
			return errNumerical
		}
	}
	return nil
}

// refactorizeBasis rebuilds the explicit basis inverse and recomputes
// the basic values. Unlike refactorize it does NOT require primal
// feasibility — the dual simplex refactorizes through deliberately
// infeasible iterates.
//
// The elimination exploits the basis structure of this solver's LPs:
// most basic columns are singletons (slacks and artificials are unit
// vectors; the NetCache/joint placement bases run 80–90% slack).
// Matching each singleton column to its home row block-triangularizes
// the basis by permutation,
//
//	B_perm = [ D  E ]   D: diagonal of matched singleton entries
//	         [ 0  K ]   K: kernel of the unmatched columns and rows
//
// (singleton columns have no entries outside their home row, hence the
// zero block), so only the k×k kernel needs Gauss-Jordan elimination:
//
//	Binv_perm = [ D⁻¹  -D⁻¹·E·K⁻¹ ]
//	            [ 0         K⁻¹   ]
//
// That turns the O(m³) full elimination into O(k³) plus sparse
// assembly — the difference between ~250M and ~1M multiply-adds on the
// joint multi-tenant form — which matters because every branch-and-
// bound chain start re-factorizes an inherited basis snapshot.
func (s *simplex) refactorizeBasis() error {
	m := s.sf.m
	ws := s.ws
	pivRow := ws.pivRow[:m] // per basis position: matched home row, or -1
	rowPos := ws.rowPos[:m] // per row: matched basis position, or -1
	dinv := ws.dinv[:m]     // per matched position: 1/diagonal entry
	for i := 0; i < m; i++ {
		pivRow[i] = -1
		rowPos[i] = -1
	}
	kcols := ws.kcols[:0] // kernel basis positions
	for c, bj := range s.basis {
		col := &s.cols[bj]
		if len(col.ind) == 1 {
			r := col.ind[0]
			if a := col.val[0]; rowPos[r] == -1 && math.Abs(a) >= 1e-12 {
				rowPos[r] = int32(c)
				pivRow[c] = r
				dinv[c] = 1 / a
				continue
			}
		}
		kcols = append(kcols, int32(c))
	}
	krows := ws.krows[:0] // kernel rows, ascending
	kq := ws.kq[:m]       // per row: kernel row index, or -1
	for r := 0; r < m; r++ {
		if rowPos[r] == -1 {
			kq[r] = int32(len(krows))
			krows = append(krows, int32(r))
		} else {
			kq[r] = -1
		}
	}
	kK := len(kcols) // == len(krows) by counting

	// Invert the kernel via Gauss-Jordan with partial pivoting on the
	// workspace's augmented scratch [K | I] (rows were permuted by the
	// previous elimination, so every used row is rezeroed).
	bmat := ws.kernelScratch(kK)
	for i := 0; i < kK; i++ {
		row := bmat[i][:2*kK]
		for k := range row {
			row[k] = 0
		}
		row[kK+i] = 1
	}
	for ci, c := range kcols {
		col := &s.cols[s.basis[c]]
		for k, r := range col.ind {
			if qi := kq[r]; qi >= 0 {
				bmat[qi][ci] = col.val[k]
			}
		}
	}
	for c := 0; c < kK; c++ {
		p := c
		for r := c + 1; r < kK; r++ {
			if math.Abs(bmat[r][c]) > math.Abs(bmat[p][c]) {
				p = r
			}
		}
		// A zero pivot column also catches a kernel column supported
		// only on matched rows: such a column lies in the span of the
		// matched singletons, so the basis really is singular.
		if math.Abs(bmat[p][c]) < 1e-12 {
			return errSingularBasis
		}
		bmat[c], bmat[p] = bmat[p], bmat[c]
		inv := 1 / bmat[c][c]
		for k := c; k < 2*kK; k++ {
			bmat[c][k] *= inv
		}
		for r := 0; r < kK; r++ {
			if r == c {
				continue
			}
			f := bmat[r][c]
			if f == 0 {
				continue
			}
			for k := c; k < 2*kK; k++ {
				bmat[r][k] -= f * bmat[c][k]
			}
		}
	}

	// Assemble Binv (rows: basis positions, columns: original rows).
	for c := 0; c < m; c++ {
		row := s.binv[c]
		for k := range row {
			row[k] = 0
		}
		if pivRow[c] >= 0 {
			row[pivRow[c]] = dinv[c]
		}
	}
	for ci, c := range kcols {
		row := s.binv[c]
		kinv := bmat[ci][kK : 2*kK]
		for qi, r := range krows {
			row[r] = kinv[qi]
		}
	}
	// The -D⁻¹·E·K⁻¹ block, assembled from the kernel columns' entries
	// on matched rows (the sparse E) without materializing E.
	for ci, c := range kcols {
		col := &s.cols[s.basis[c]]
		kinv := bmat[ci][kK : 2*kK]
		for k, r := range col.ind {
			cp := rowPos[r]
			if cp < 0 {
				continue
			}
			f := col.val[k] * dinv[cp]
			brow := s.binv[cp]
			for qi, rr := range krows {
				brow[rr] -= f * kinv[qi]
			}
		}
	}
	s.computeXB()
	s.pivots = 0
	ws.pivotAge = 0
	s.refactors++
	return nil
}

// kernelScratch returns k rows of at least 2k columns for the kernel
// elimination. Only the kernel block is ever eliminated, and kernels
// run far below the row count (the suite apps' largest is NetCache's,
// k=186 of m=554 rows), so the scratch starts empty and grows to the
// largest kernel seen, plus a quarter so that a slowly growing kernel
// does not reallocate at every step. Every row sits in one backing
// array; the elimination swaps row headers, which keeps each row's
// full capacity.
func (ws *lpWorkspace) kernelScratch(k int) [][]float64 {
	if k > len(ws.bmat) {
		n := min(k+k/4, len(ws.basis))
		buf := make([]float64, 2*n*n)
		ws.bmat = make([][]float64, n)
		for i := range ws.bmat {
			ws.bmat[i] = buf[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		}
	}
	return ws.bmat[:k]
}

// computeXB recomputes the basic values xB = Binv · (b - A_N x_N) from
// the current inverse and nonbasic statuses. Dual re-solves use it
// directly when the parent's inverse is still resident: a child's
// bound change moves nonbasic values, not the factorization.
func (s *simplex) computeXB() {
	m := s.sf.m
	resid := s.ws.resid[:m]
	copy(resid, s.sf.b)
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		x := s.nbValue(j)
		if x == 0 {
			continue
		}
		col := &s.cols[j]
		for k, r := range col.ind {
			resid[r] -= col.val[k] * x
		}
	}
	for i := 0; i < m; i++ {
		v := 0.0
		row := s.binv[i]
		for r := 0; r < m; r++ {
			v += row[r] * resid[r]
		}
		s.xB[i] = v
	}
}

// pivotBinv applies the entering column's elimination to the explicit
// inverse: row r is scaled by the pivot and eliminated from the rest.
// w must hold Binv·A_enter. Shared by the primal and dual iterations.
func (s *simplex) pivotBinv(r int, w []float64) {
	m := s.sf.m
	rowR := s.binv[r]
	inv := 1 / w[r]
	// The pivot row of the inverse starts near-unit after a block
	// refactorization and fills in slowly, so most pivots touch a
	// handful of columns. Index its nonzeros once and update only
	// those; past ~1/4 density the indexed walk loses to a straight
	// scan and the dense path takes over.
	if cap(s.ws.nzIdx) < m {
		s.ws.nzIdx = make([]int32, 0, m)
	}
	nz := s.ws.nzIdx[:0]
	for c := 0; c < m; c++ {
		if rowR[c] != 0 {
			rowR[c] *= inv
			nz = append(nz, int32(c))
		}
	}
	s.ws.nzIdx = nz
	if len(nz)*4 > m {
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			ri := s.binv[i]
			for c := 0; c < m; c++ {
				ri[c] -= f * rowR[c]
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		ri := s.binv[i]
		for _, c := range nz {
			ri[c] -= f * rowR[c]
		}
	}
}

// debugChecks enables expensive internal invariant checks. Package
// tests switch it on around the solves they want audited; it is never
// set outside them.
var debugChecks = false
