package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

func TestCompileEndToEnd(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	res, err := Compile(modules.StandaloneCMS(), tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout == nil || res.ILP == nil || res.Bounds == nil || res.Unit == nil {
		t.Fatal("incomplete result")
	}
	if res.P4 == "" {
		t.Error("codegen produced no output")
	}
	if res.Phases.Total() <= 0 {
		t.Error("phases not timed")
	}
	if err := res.Layout.Validate(res.ILP); err != nil {
		t.Errorf("layout invalid: %v", err)
	}
}

func TestSkipCodegen(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	res, err := Compile(modules.StandaloneCMS(), tgt, Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.P4 != "" {
		t.Error("SkipCodegen still generated code")
	}
	if res.Phases.Codegen != 0 {
		t.Error("codegen phase timed despite being skipped")
	}
}

func TestCompileFrontEndError(t *testing.T) {
	_, err := Compile("this is not p4all", pisa.EvalTarget(pisa.Mb), Options{})
	if err == nil || !strings.Contains(err.Error(), "front end") {
		t.Errorf("err = %v, want front end error", err)
	}
}

func TestCompileInvalidTarget(t *testing.T) {
	_, err := Compile(modules.StandaloneCMS(), pisa.Target{Name: "bad"}, Options{})
	if err == nil {
		t.Error("invalid target accepted")
	}
}

func TestCompileInfeasible(t *testing.T) {
	src := modules.StandaloneCMS() + "\nassume cms_rows >= 8;\n"
	_, err := Compile(src, pisa.RunningExampleTarget(), Options{})
	if !errors.Is(err, ilpgen.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Solver.Gap != 0.03 || o.Solver.NodeLimit != 4000 || o.Solver.TimeLimit != 90*time.Second {
		t.Errorf("defaults = %+v", o.Solver)
	}
	exact := Options{Solver: ilp.Options{Gap: -1}}.withDefaults()
	if exact.Solver.Gap != 0 {
		t.Errorf("negative gap should mean exact, got %g", exact.Solver.Gap)
	}
	custom := Options{Solver: ilp.Options{Gap: 0.1, NodeLimit: 7, TimeLimit: time.Second}}.withDefaults()
	if custom.Solver.Gap != 0.1 || custom.Solver.NodeLimit != 7 || custom.Solver.TimeLimit != time.Second {
		t.Errorf("explicit options overridden: %+v", custom.Solver)
	}
}

func TestCompileUnitReuse(t *testing.T) {
	// The same resolved unit compiled for two targets must not
	// interfere (the Figure 12 sweep depends on this).
	res1, err := Compile(modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb), Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := CompileUnit(res1.Unit, pisa.EvalTarget(2*pisa.Mb), Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Layout.Symbolic("cms_cols") < res1.Layout.Symbolic("cms_cols") {
		t.Errorf("doubling memory shrank cols: %d -> %d",
			res1.Layout.Symbolic("cms_cols"), res2.Layout.Symbolic("cms_cols"))
	}
}

// TestFlowRadarCertifies: on the evaluation targets the solver leaves
// FlowRadar's counter table a fraction of a cell over its whole cells
// once each stage's memory is rounded (611669 bits for 19114 cells of
// 32 at 7/4 Mb). The extracted layout must trim that remainder, or the
// certifier's register-shape audit rejects the compile (bits that are
// not cells×width).
func TestFlowRadarCertifies(t *testing.T) {
	opts := Options{
		Solver:  ilp.Options{Gap: 0.03, NodeLimit: 4000, TimeLimit: 90 * time.Second, Deterministic: true},
		Certify: true,
		Name:    "FlowRadar",
	}
	for _, mem := range []int{pisa.Mb / 2, pisa.Mb, 5 * pisa.Mb / 4, 3 * pisa.Mb / 2, 7 * pisa.Mb / 4} {
		res, err := Compile(apps.FlowRadar().Source, pisa.EvalTarget(mem), opts)
		if err != nil {
			t.Fatalf("%d bits: %v", mem, err)
		}
		if !res.Certificate.Proved() {
			t.Errorf("%d bits: %s", mem, res.Certificate.Summary())
			for _, c := range res.Certificate.Audit.Checks {
				if !c.OK {
					t.Errorf("  audit %s: %s", c.Name, c.Detail)
				}
			}
		}
	}
}
