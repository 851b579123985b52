package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkInverse reports the largest deviation of B·Binv from the
// identity, where B's columns are the basis columns in basis order and
// binv's rows are indexed by basis position.
func checkInverse(cols []spCol, basis []int32, binv [][]float64, m int) float64 {
	worst := 0.0
	prod := make([]float64, m)
	for r := 0; r < m; r++ { // column r of B·Binv
		for i := range prod {
			prod[i] = 0
		}
		for c, bj := range basis {
			f := binv[c][r]
			if f == 0 {
				continue
			}
			col := &cols[bj]
			for k, row := range col.ind {
				prod[row] += col.val[k] * f
			}
		}
		for i, v := range prod {
			want := 0.0
			if i == r {
				want = 1
			}
			worst = math.Max(worst, math.Abs(v-want))
		}
	}
	return worst
}

// TestRefactorizeGrowingKernel reuses one workspace across bases whose
// refactorization kernel grows, shrinks and grows again, and checks
// B·Binv ≈ I after every refactorizeBasis: the kernel scratch starts
// empty, grows on demand, and keeps its larger size when the kernel
// shrinks. It then re-solves bound-tightened LPs on the same workspace
// with the solver's debug invariants switched on.
func TestRefactorizeGrowingKernel(t *testing.T) {
	debugChecks = true
	defer func() { debugChecks = false }()

	const m = 48
	rng := rand.New(rand.NewSource(11))
	model := NewModel("kernel")
	vars := make([]Var, m)
	for i := range vars {
		vars[i] = model.AddVar(fmt.Sprintf("x%d", i), 0, 10, Continuous)
	}
	// Row i weighs x_i heavily and touches a random third of the other
	// variables, so every structural column has several entries and a
	// basis of the first k structurals plus the slacks of rows k..m-1
	// has a k×k, diagonally dominant kernel.
	obj := NewExpr()
	for i := 0; i < m; i++ {
		e := NewExpr()
		for j := 0; j < m; j++ {
			switch {
			case j == i:
				e.Add(vars[j], float64(m+rng.Intn(5)))
			case rng.Intn(3) == 0:
				e.Add(vars[j], float64(rng.Intn(5)-2))
			}
		}
		model.AddConstr(fmt.Sprintf("r%d", i), e, LE, float64(100+rng.Intn(200)))
		obj.Add(vars[i], float64(1+rng.Intn(4)))
	}
	model.SetObjective(obj, Maximize)
	sf, err := lowerModel(model, false)
	if err != nil {
		t.Fatal(err)
	}
	if sf.m != m || sf.nStruct != m {
		t.Fatalf("lowered form is %d×%d, want %d×%d", sf.m, sf.nStruct, m, m)
	}
	ws := newWorkspace(sf)
	if len(ws.bmat) != 0 {
		t.Fatalf("fresh workspace holds a %d-row kernel scratch", len(ws.bmat))
	}

	n := sf.nStruct + m
	s := &simplex{sf: sf, ws: ws, n: n, nSlack: m, basis: ws.basis[:m], xB: ws.xB[:m], binv: ws.binv[:m]}
	s.cols = ws.cols[:n]
	copy(s.cols, sf.cols)
	s.lo, s.hi, s.status = ws.lo[:n], ws.hi[:n], ws.status[:n]
	copy(s.lo, sf.lo)
	copy(s.hi, sf.hi)
	for i := 0; i < m; i++ {
		s.cols[sf.nStruct+i] = ws.slack[i]
		s.lo[sf.nStruct+i], s.hi[sf.nStruct+i] = 0, Inf
	}
	for _, k := range []int{1, 4, 9, 20, 33, 12, 48, 5} {
		for j := range s.status {
			s.status[j] = nbLower
		}
		for c := 0; c < m; c++ {
			if c < k {
				s.basis[c] = int32(c)
			} else {
				s.basis[c] = int32(sf.nStruct + c)
			}
			s.status[s.basis[c]] = inBasis
		}
		before := len(ws.bmat)
		if err := s.refactorizeBasis(); err != nil {
			t.Fatalf("kernel %d: %v", k, err)
		}
		if len(ws.bmat) < k || len(ws.bmat) < before {
			t.Errorf("kernel %d: scratch has %d rows (had %d)", k, len(ws.bmat), before)
		}
		if dev := checkInverse(s.cols, s.basis, s.binv, m); dev > 1e-9 {
			t.Errorf("kernel %d: |B·Binv - I| = %g", k, dev)
		}
	}

	// Branch-and-bound style re-solves on the same workspace, each
	// tightening one more upper bound, under the debug invariants.
	lo := append([]float64(nil), sf.lo...)
	hi := append([]float64(nil), sf.hi...)
	for round := 0; round < 8; round++ {
		hi[rng.Intn(m)] = float64(rng.Intn(3))
		st, _, _, _, err := solveLP(sf, lo, hi, 10000, nil, nil, ws)
		if err != nil || st != lpOptimal {
			t.Fatalf("round %d: status %v, err %v", round, st, err)
		}
		if dev := checkInverse(ws.cols[:cap(ws.cols)], ws.basis[:m], ws.binv[:m], m); dev > 1e-9 {
			t.Errorf("round %d: |B·Binv - I| = %g", round, dev)
		}
	}
}
