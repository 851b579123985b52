package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"p4all/internal/apps"
	"p4all/internal/check"
	"p4all/internal/codegen"
	"p4all/internal/core"
	"p4all/internal/difftest"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sim"
	"p4all/internal/tv"
	"p4all/internal/unroll"
)

const (
	// setupReps is how many times a workload repeats its set-up;
	// setup_s is the median. compile-run's set-up takes milliseconds, so
	// it repeats it more to steady the median.
	setupReps        = 3
	compileSetupReps = 9
	// replayPackets is each app's replay stream length per round, and
	// checkPackets the prefix replayed on the interpreter as reference.
	replayPackets = 5000
	checkPackets  = 2000
)

// solverOptions are core.Compile's solver defaults spelled out, so the
// traced pipeline, which calls the layers one by one, solves with the
// options the untraced core.Compile uses. Deterministic search makes
// node counts and objectives repeat exactly across runs.
func solverOptions() ilp.Options {
	return ilp.Options{Gap: 0.03, NodeLimit: 4000, TimeLimit: 90 * time.Second, Deterministic: true}
}

// appCase is one compile-run app: its difftest spec supplies the source
// and the header fields its packet stream fills.
type appCase struct {
	key  string
	spec difftest.AppSpec
}

func appCases() []appCase {
	specs := difftest.Specs()
	cases := make([]appCase, 0, len(specs)+1)
	for i, s := range specs {
		cases = append(cases, appCase{key: appKeys[i], spec: s})
	}
	return append(cases, appCase{key: "flowradar", spec: difftest.AppSpec{
		Name:   "FlowRadar",
		Source: apps.FlowRadar().Source,
		Fields: []difftest.FieldSpec{
			{Name: "pkt.flow", Width: 32, Key: true},
			{Name: "pkt.len", Width: 16},
		},
	}})
}

// compiled is what compile-run keeps of one certified compile.
type compiled struct {
	unit   *lang.Unit
	layout *ilpgen.Layout
	cert   *tv.Certificate
}

// compileApp runs one certified compile. Untraced it is core.Compile;
// traced it calls the layers core.Compile calls, in its order, with a
// span around each.
func compileApp(tr *tracer, c appCase, target pisa.Target) (*compiled, error) {
	if tr == nil {
		res, err := core.Compile(c.spec.Source, target, core.Options{Solver: solverOptions(), Certify: true, Name: c.spec.Name})
		if err != nil {
			return nil, err
		}
		return &compiled{unit: res.Unit, layout: res.Layout, cert: res.Certificate}, nil
	}
	var (
		out      compiled
		err      error
		bounds   *unroll.Result
		prog     *ilpgen.ILP
		concrete *codegen.Concrete
	)
	if tr.do("lang", "parse."+c.key, func() { out.unit, err = lang.ParseAndResolve(c.spec.Source) }); err != nil {
		return nil, err
	}
	tr.do("check", "bounds."+c.key, func() { check.Bounds(out.unit) })
	if tr.do("unroll", "bounds."+c.key, func() { bounds, err = unroll.UpperBounds(out.unit, &target) }); err != nil {
		return nil, err
	}
	if tr.do("ilpgen", "generate."+c.key, func() { prog, err = ilpgen.Generate(out.unit, &target, bounds) }); err != nil {
		return nil, err
	}
	if tr.do("ilp", "solve."+c.key, func() { out.layout, err = prog.Solve(solverOptions()) }); err != nil {
		return nil, err
	}
	if tr.do("codegen", "emit."+c.key, func() {
		if concrete, err = codegen.Build(out.unit, out.layout); err == nil {
			codegen.Render(concrete)
		}
	}); err != nil {
		return nil, err
	}
	tr.do("tv", "validate."+c.key, func() {
		out.cert = tv.Validate(out.unit, out.layout, concrete, tv.Options{Name: c.spec.Name})
	})
	return &out, nil
}

// compileMeasure collects one pass's per-app samples.
type compileMeasure struct {
	compile, pps, allocs [][]float64
	last                 []*compiled
	fallback             []bool
}

func newCompileMeasure(n int) *compileMeasure {
	return &compileMeasure{
		compile: make([][]float64, n), pps: make([][]float64, n), allocs: make([][]float64, n),
		last: make([]*compiled, n), fallback: make([]bool, n),
	}
}

// compileRound compiles every app once and replays its stream through
// the default engine.
func compileRound(tr *tracer, cases []appCase, target pisa.Target, streams [][]sim.Packet, m *compileMeasure, r *result) {
	for i, c := range cases {
		id := tr.begin("bench", "app."+c.key)
		compileAndReplay(tr, i, c, target, streams[i], m, r)
		tr.end(id)
	}
}

func compileAndReplay(tr *tracer, i int, c appCase, target pisa.Target, stream []sim.Packet, m *compileMeasure, r *result) {
	start := time.Now()
	out, err := compileApp(tr, c, target)
	elapsed := time.Since(start)
	if err != nil {
		r.check("compile."+c.key, "compile error: "+c.key+": "+err.Error())
		return
	}
	if !out.cert.Proved() {
		r.check("compile."+c.key, "certificate not proved: "+out.cert.Summary())
	} else {
		r.check("compile."+c.key, "")
	}
	m.compile[i] = append(m.compile[i], elapsed.Seconds())
	m.last[i] = out

	var pipe *sim.Pipeline
	if tr.do("sim", "lower."+c.key, func() { pipe, err = sim.New(out.unit, out.layout) }); err != nil {
		r.check("replay."+c.key, "sim lowering error: "+c.key+": "+err.Error())
		return
	}
	m.fallback[i] = pipe.Fallback() != nil
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start = time.Now()
	tr.do("sim", "replay."+c.key, func() { err = pipe.Replay(stream, nil) })
	elapsed = time.Since(start)
	if err != nil {
		r.check("replay."+c.key, "replay error: "+c.key+": "+err.Error())
		return
	}
	r.check("replay."+c.key, "")
	m.pps[i] = append(m.pps[i], float64(len(stream))/elapsed.Seconds())
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		m.allocs[i] = append(m.allocs[i], float64(after.Mallocs-before.Mallocs)/float64(len(stream)))
	}
}

var errDiverged = errors.New("engines diverged")

// checkEngine replays a stream prefix through the default engine and
// through the reference interpreter, from fresh register state, and
// reports the first difference in outputs or work counters ("" when
// they agree). inject alters one default-engine output first.
func checkEngine(out *compiled, prefix []sim.Packet, inject bool) (string, error) {
	ref, err := sim.NewEngine(out.unit, out.layout, sim.EngineInterp)
	if err != nil {
		return "", err
	}
	def, err := sim.New(out.unit, out.layout)
	if err != nil {
		return "", err
	}
	want := make([]map[string]uint64, len(prefix))
	for i, p := range prefix {
		if want[i], err = ref.Process(p); err != nil {
			return "", fmt.Errorf("interpreter packet %d: %w", i, err)
		}
	}
	diff := ""
	err = def.Replay(prefix, func(i int, v sim.View) error {
		got := v.Map()
		if inject && i == len(prefix)/2 {
			corrupt(got)
		}
		if d := diffMaps(want[i], got); d != "" {
			diff = fmt.Sprintf("packet %d: %s", i, d)
			return errDiverged
		}
		return nil
	})
	if diff != "" {
		return diff, nil
	}
	if err != nil {
		return "", fmt.Errorf("default engine: %w", err)
	}
	a, b := ref.Stats(), def.Stats()
	if a.Packets != b.Packets || a.RegReads != b.RegReads || a.RegWrites != b.RegWrites || a.TotalALUOps() != b.TotalALUOps() {
		return fmt.Sprintf("work counters %+v vs %+v", a, b), nil
	}
	return "", nil
}

// corrupt flips the low bit of the alphabetically first output field.
func corrupt(m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		m[keys[0]] ^= 1
	}
}

func diffMaps(want, got map[string]uint64) string {
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Sprintf("%s: interpreter %d, default engine %d (present %v)", k, w, g, ok)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("%s: only the default engine sets it", k)
		}
	}
	return ""
}

func runCompile(cfg config, r *result) error {
	target := pisa.EvalTarget(7 * pisa.Mb / 4)
	cases := appCases()
	n := replayPackets
	if cfg.Tiny {
		n = checkPackets
	}
	var streams [][]sim.Packet
	setup, err := setUp(compileSetupReps, func() error {
		streams = make([][]sim.Packet, len(cases))
		for i, c := range cases {
			streams[i] = difftest.GenStream(c.spec, cfg.Seed, n)
		}
		return nil
	})
	if err != nil {
		return err
	}

	if cfg.Trace {
		// Warm up first, so the first pass's first round does not carry
		// the process's cold start into the tracing overhead.
		compileRound(nil, cases, target, streams, newCompileMeasure(len(cases)), r)
	}
	m := newCompileMeasure(len(cases))
	rounds := 0
	start := time.Now()
	for ; more(rounds, cfg.count(), start, cfg.budget()); rounds++ {
		compileRound(nil, cases, target, streams, m, r)
	}
	untraced := time.Since(start)

	for i, c := range cases {
		if m.last[i] == nil {
			continue
		}
		diff, err := checkEngine(m.last[i], streams[i][:checkPackets], cfg.InjectDivergence)
		switch {
		case err != nil:
			r.check("engine."+c.key, "engine check error: "+c.key+": "+err.Error())
		case diff != "":
			r.wrongCheck("engine."+c.key, "default engine differs from the interpreter: "+c.key+": "+diff)
		default:
			r.check("engine."+c.key, "")
		}
	}

	if !cfg.Trace {
		var compileMed, ppsMed, utility []float64
		for i := range cases {
			compileMed = append(compileMed, median(m.compile[i]))
			ppsMed = append(ppsMed, median(m.pps[i]))
			if m.last[i] != nil {
				utility = append(utility, m.last[i].layout.Objective)
			}
		}
		r.endToEnd("setup_s", setup, "s")
		r.endToEnd("latency_ms", 1000*geomean(compileMed), "ms")
		r.endToEnd("longest_wait_ms", 1000*sum(compileMed), "ms")
		r.endToEnd("throughput_per_s", geomean(ppsMed), "1/s")
		r.endToEnd("quality", geomean(utility), "score")
		return nil
	}

	tr := newTracer()
	r.tr = tr
	mt := newCompileMeasure(len(cases))
	root := tr.begin("bench", "compile-run")
	start = time.Now()
	for k := 0; k < rounds; k++ {
		compileRound(tr, cases, target, streams, mt, r)
	}
	traced := time.Since(start)
	tr.end(root)

	for i, c := range cases {
		k := c.key
		for _, l := range []struct{ layer, span, metric string }{
			{"lang", "parse", "lang.parse_s"},
			{"unroll", "bounds", "unroll.bounds_s"},
			{"ilpgen", "generate", "ilpgen.generate_s"},
			{"ilp", "solve", "ilp.solve_s"},
			{"codegen", "emit", "codegen.emit_s"},
			{"tv", "validate", "tv.validate_s"},
			{"sim", "lower", "sim.lower_s"},
			{"sim", "replay", "sim.replay_s"},
		} {
			r.layer(l.metric+"."+k, median(tr.durations(l.layer, l.span+"."+k)), "s")
		}
		r.layer("sim.allocs_per_pkt."+k, median(mt.allocs[i]), "count")
		if mt.fallback[i] {
			r.layer("sim.interp_fallback."+k, 1, "count")
		}
		if out := mt.last[i]; out != nil {
			st := out.layout.Stats
			r.layer("ilp.nodes."+k, float64(st.Nodes), "count")
			r.layer("ilp.simplex_iters."+k, float64(st.SimplexIter), "count")
			r.layer("ilp.dual_share."+k, ratio(float64(st.DualIters), float64(st.SimplexIter)), "ratio")
			r.layer("tv.paths."+k, float64(out.cert.Equivalence.Paths), "count")
		}
	}
	tr.traceMetrics(r, untraced, traced)
	return nil
}
