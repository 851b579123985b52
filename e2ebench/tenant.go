package main

import (
	"fmt"
	"time"

	"p4all/internal/apps"
	"p4all/internal/multitenant"
	"p4all/internal/pisa"
)

// tenantFloor is every tenant's utility floor in the joint compile.
const tenantFloor = 1024

// reweightCycle is the FlowRadar weights each reweight pass steps
// through after the cold compile. It mixes root-node re-solves with ones
// that search tens to hundreds of nodes. The warm-up pass steps through
// it from its start; the seed picks where in the cycle each measured
// pass starts. Every pass covers the whole cycle, so every seed solves
// the same set of weights.
var reweightCycle = []float64{1.5, 2.5, 1, 3, 2}

// tenantMix is the multi-tenant CI mix: NetCache, SketchLearn and
// FlowRadar weighted 1, 1, w, each with a utility floor.
func tenantMix(w float64) []multitenant.Tenant {
	return []multitenant.Tenant{
		{Name: "netcache", Source: apps.NetCache(apps.NetCacheConfig{}).Source, Weight: 1, MinUtility: tenantFloor},
		{Name: "sketchlearn", Source: apps.SketchLearn().Source, Weight: 1, MinUtility: tenantFloor},
		{Name: "flowradar", Source: apps.FlowRadar().Source, Weight: w, MinUtility: tenantFloor},
	}
}

func newTenantCompiler() *multitenant.Compiler {
	return multitenant.NewCompiler(pisa.EvalTarget(pisa.Mb/2), multitenant.Options{Solver: solverOptions(), Certify: true})
}

// coldWeight is FlowRadar's weight in the cold compile.
const coldWeight = 2

// reweightPasses reweights the warm compiler through the cycle, pass
// after pass, until the budget is spent or, when passes > 0, that many
// passes are done. It returns each pass's reweight times and
// the results of the compiles that did not error. stage names the
// passes' checks.
func reweightPasses(tr *tracer, c *multitenant.Compiler, cycle []float64, budget time.Duration, passes int, stage string, r *result) ([][]time.Duration, []*multitenant.Result) {
	var times [][]time.Duration
	var results []*multitenant.Result
	start := time.Now()
	for p := 0; more(p, passes, start, budget); p++ {
		var pass []time.Duration
		for _, w := range cycle {
			res, d := compileMix(tr, c, w, stage, r)
			pass = append(pass, d)
			if res != nil {
				results = append(results, res)
			}
		}
		times = append(times, pass)
	}
	return times, results
}

// compileMix runs one joint compile through the compiler's warm pool
// and checks it: every tenant certified, every floor met, and a
// reweight warm-started from the previous solution. stage is "cold" for
// the cold compile, else the pass kind; the cold compile and each
// weight of each pass kind are a check of their own.
func compileMix(tr *tracer, c *multitenant.Compiler, w float64, stage string, r *result) (*multitenant.Result, time.Duration) {
	mix := tenantMix(w)
	reweight := stage != "cold"
	check := stage
	if reweight {
		check = fmt.Sprintf("%s.%g", stage, w)
	}
	id := tr.begin("multitenant", "compile")
	start := time.Now()
	res, err := c.Compile(mix)
	elapsed := time.Since(start)
	if tr != nil && err == nil {
		// The module reports its phases; lay them out in call order.
		t := start
		ph := res.Phases
		for _, p := range []struct {
			layer, name string
			d           time.Duration
		}{
			{"lang", "parse.joint", ph.Parse},
			{"unroll", "bounds.joint", ph.Bounds},
			{"ilpgen", "generate.joint", ph.Generate},
			{"check", "isolation.joint", ph.Isolate},
			{"ilp", "solve.joint", ph.Solve},
			{"codegen", "emit.joint", ph.Codegen},
			{"tv", "validate.joint", ph.Certify},
		} {
			tr.child(p.layer, p.name, t, p.d)
			t = t.Add(p.d)
		}
	}
	tr.end(id)
	if err != nil {
		r.check(check, fmt.Sprintf("joint compile error (flowradar weight %g): %v", w, err))
		return nil, elapsed
	}
	for i, t := range mix {
		if u := res.Tenants[i].Utility; u < t.MinUtility*(1-1e-6) {
			r.wrongCheck(check, fmt.Sprintf("tenant %s utility %g below its floor %g", t.Name, u, t.MinUtility))
			return res, elapsed
		}
	}
	for _, t := range res.Tenants {
		if !t.Certificate.Proved() {
			r.check(check, "certificate not proved: "+t.Certificate.Summary())
			return res, elapsed
		}
	}
	if reweight && !res.Layout.Stats.WarmStarted {
		r.check(check, fmt.Sprintf("reweight to flowradar weight %g did not warm-start", w))
		return res, elapsed
	}
	r.check(check, "")
	return res, elapsed
}

func runTenant(cfg config, r *result) error {
	// Set-up is the cold joint compile that fills a compiler's warm pool,
	// repeated on fresh compilers; the reweights ride the last one.
	reps := setupReps
	cycle := rotate(reweightCycle, cfg.Seed)
	if cfg.Tiny {
		reps, cycle = 1, cycle[:1]
	}
	var c *multitenant.Compiler
	var cold *multitenant.Result
	setup, err := setUp(reps, func() error {
		c = newTenantCompiler()
		if cold, _ = compileMix(nil, c, coldWeight, "cold", r); cold == nil {
			return fmt.Errorf("cold joint compile failed: %s", r.checks["cold"].reason)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Warm up with one pass over the cycle from its start, the same on
	// every seed, so that every measured pass, traced or not, starts
	// from the cycle's steady state and solves the same models.
	reweightPasses(nil, c, reweightCycle, 0, 1, "warm-up", r)
	start := time.Now()
	times, results := reweightPasses(nil, c, cycle, cfg.budget(), cfg.count(), "reweight", r)
	untraced := time.Since(start)

	if !cfg.Trace {
		var all, mean, slowest, objectives []float64
		for _, pass := range times {
			var worst, total float64
			for _, d := range pass {
				all = append(all, d.Seconds())
				total += d.Seconds()
				worst = max(worst, d.Seconds())
			}
			mean = append(mean, total/float64(len(pass)))
			slowest = append(slowest, worst)
		}
		for _, res := range results {
			objectives = append(objectives, res.Layout.Objective)
		}
		r.endToEnd("setup_s", setup, "s")
		r.endToEnd("latency_ms", 1000*median(mean), "ms")
		r.endToEnd("longest_wait_ms", 1000*median(slowest), "ms")
		r.endToEnd("throughput_per_s", ratio(float64(len(all)), sum(all)), "1/s")
		r.endToEnd("quality", geomean(objectives), "score")
		return nil
	}

	tr := newTracer()
	r.tr = tr
	root := tr.begin("bench", "tenant-reweight")
	start = time.Now()
	_, results = reweightPasses(tr, c, cycle, 0, len(times), "reweight", r)
	traced := time.Since(start)
	tr.end(root)

	r.layer("ilp.solve_s.cold", cold.Phases.Solve.Seconds(), "s")
	r.layer("ilp.nodes.cold", float64(cold.Layout.Stats.Nodes), "count")
	var parse, bounds, gen, iso, certify, solve, nodes, iters []float64
	var dual, allIters, fallbacks, warm float64
	for _, res := range results {
		ph, st := res.Phases, res.Layout.Stats
		parse = append(parse, ph.Parse.Seconds())
		bounds = append(bounds, ph.Bounds.Seconds())
		gen = append(gen, ph.Generate.Seconds())
		iso = append(iso, ph.Isolate.Seconds())
		certify = append(certify, ph.Certify.Seconds())
		solve = append(solve, ph.Solve.Seconds())
		nodes = append(nodes, float64(st.Nodes))
		iters = append(iters, float64(st.SimplexIter))
		dual += float64(st.DualIters)
		allIters += float64(st.SimplexIter)
		fallbacks += float64(st.PrimalFallbacks)
		if st.WarmStarted {
			warm++
		}
	}
	r.layer("ilp.solve_s.reweight", median(solve), "s")
	r.layer("ilp.nodes.reweight", median(nodes), "count")
	r.layer("ilp.simplex_iters.reweight", median(iters), "count")
	r.layer("ilp.dual_share.reweight", ratio(dual, allIters), "ratio")
	r.layer("ilp.primal_fallbacks.reweight", fallbacks, "count")
	r.layer("multitenant.warm_share", ratio(warm, float64(len(results))), "ratio")
	r.layer("multitenant.parse_s", median(parse), "s")
	r.layer("multitenant.bounds_s", median(bounds), "s")
	r.layer("multitenant.generate_s", median(gen), "s")
	r.layer("check.isolation_s", median(iso), "s")
	r.layer("tv.validate_s.joint", median(certify), "s")
	tr.traceMetrics(r, untraced, traced)
	return nil
}

// rotate returns the cycle started at position seed mod its length.
func rotate(cycle []float64, seed int64) []float64 {
	k := int(seed % int64(len(cycle)))
	if k < 0 {
		k += len(cycle)
	}
	return append(append([]float64(nil), cycle[k:]...), cycle[:k]...)
}
