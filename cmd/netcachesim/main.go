// Command netcachesim measures NetCache cache quality: it plays a
// Zipf-skewed key-request stream against a count-min-sketch-admitted
// key-value cache with the shapes the P4All compiler chose (or shapes
// given on the command line) and reports the hit rate — the quality
// metric of the paper's Figure 4.
//
// With -drift it instead runs the workload-drift experiment: the same
// stream served by a frozen layout and by the elastic runtime
// controller, reporting per-window hit rates across a skew step (see
// docs/ELASTICITY.md).
//
// With -simreplay N it compiles NetCache, replays N Zipf packets
// through the behavioral pipeline on the engine chosen by -engine
// (vm or interp), and reports packets/sec plus the pipeline's
// resource counters — a quick way to bisect a throughput regression
// to the execution engine (see docs/SIM_PERF.md). Adding -shards M
// replays through the sharded serving runtime (M flow-hashed
// pipelines, see docs/SERVING.md) instead of one pipeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/eval"
	"p4all/internal/ilp"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/serve"
	"p4all/internal/sim"
	"p4all/internal/workload"
)

func main() {
	var (
		mem      = flag.Int("mem", 7*pisa.Mb/4, "per-stage memory bits for the compiled shape")
		rows     = flag.Int("rows", 0, "CMS rows (0: use the compiler's choice)")
		cols     = flag.Int("cols", 0, "CMS cols (0: use the compiler's choice)")
		items    = flag.Int("items", 0, "KV items (0: use the compiler's choice)")
		keys     = flag.Int("keys", 100000, "key universe size")
		requests = flag.Int("requests", 400000, "request count")
		zipf     = flag.Float64("zipf", 0.95, "request skew")
		seed     = flag.Int64("seed", 1, "workload seed")
		threads  = flag.Int("threads", 0, "branch-and-bound workers per solve (0: all cores)")
		det      = flag.Bool("det", true, "deterministic solver mode — compiled shapes are bit-stable across runs and -threads values")
		presolve = flag.Bool("presolve", true, "root presolve: bound tightening, fixed-variable substitution, redundant-row elimination")
		trace    = flag.String("trace", "", "write a JSONL trace of the shape compile and simulation to this file")
		summary  = flag.Bool("summary", false, "print an observability summary table to stderr")
		drift    = flag.Bool("drift", false, "run the workload-drift experiment (frozen vs elastic controller)")
		engine   = flag.String("engine", "vm", "sim execution engine: vm or interp")
		replayN  = flag.Int("simreplay", 0, "replay N packets through the behavioral pipeline and report packets/sec (0: off)")
		shards   = flag.Int("shards", 1, "with -simreplay: replay through the sharded serving runtime with this many shards")
	)
	flag.Parse()
	solver := ilp.Options{Threads: *threads, Deterministic: *det, DisablePresolve: !*presolve}

	tracer, err := obs.FromCLI(*trace, *summary, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcachesim:", err)
		os.Exit(1)
	}

	if *replayN > 0 {
		if err := runSimReplay(*engine, *mem, *keys, *replayN, *shards, *zipf, *seed, solver, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim:", err)
			os.Exit(1)
		}
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim: trace:", err)
		}
		return
	}

	if *drift {
		if err := runDrift(*seed, solver, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim:", err)
			os.Exit(1)
		}
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim: trace:", err)
		}
		return
	}

	if *rows == 0 || *cols == 0 || *items == 0 {
		fmt.Fprintln(os.Stderr, "compiling NetCache to obtain structure shapes...")
		app := apps.NetCache(apps.NetCacheConfig{})
		res, err := core.Compile(app.Source, pisa.EvalTarget(*mem), core.Options{Solver: solver, SkipCodegen: true, Tracer: tracer})
		if err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim:", err)
			os.Exit(1)
		}
		l := res.Layout
		if *rows == 0 {
			*rows = int(l.Symbolic("cms_rows"))
		}
		if *cols == 0 {
			*cols = int(l.Symbolic("cms_cols"))
		}
		if *items == 0 {
			*items = int(l.Symbolic("kv_parts") * l.Symbolic("kv_slots"))
		}
		fmt.Fprintf(os.Stderr, "compiler chose cms %dx%d, kv %d items (certified gap %.2f%%)\n",
			*rows, *cols, *items, 100*l.Stats.Gap)
	}

	cfg := eval.Fig4Config{
		Seed: *seed, Keys: *keys, Requests: *requests, Zipf: *zipf,
		Threshold: 8, Epoch: *requests / 8,
	}
	budget := int64(*rows)*int64(*cols)*32 + int64(*items)*64
	pts := eval.Figure4(cfg, budget, []int{*rows}, []float64{float64(int64(*items)*64) / float64(budget)})
	if len(pts) == 0 {
		fmt.Fprintln(os.Stderr, "netcachesim: degenerate configuration")
		os.Exit(1)
	}
	p := pts[0]
	tracer.Event("netcachesim.result",
		obs.Int("cms_rows", p.CMSRows),
		obs.Int("cms_cols", p.CMSCols),
		obs.Int("kv_items", p.KVSlots),
		obs.Int("requests", *requests),
		obs.Float("hit_rate", p.HitRate),
	)
	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "netcachesim: trace:", err)
	}
	fmt.Printf("cms %dx%d (%d bits), kv %d items (%d bits): hit rate %.4f over %d requests\n",
		p.CMSRows, p.CMSCols, int64(p.CMSRows*p.CMSCols)*32, p.KVSlots, int64(p.KVSlots)*64, p.HitRate, *requests)
}

// warnFallback reports on stderr when VM lowering fell back to the
// interpreter, which runs 30-40x slower.
func warnFallback(p *sim.Pipeline) {
	if ferr := p.Fallback(); ferr != nil {
		fmt.Fprintln(os.Stderr, "vm lowering fell back to the interpreter:", ferr)
	}
}

// runSimReplay compiles NetCache and pushes a Zipf stream through the
// behavioral pipeline on the requested engine, reporting throughput
// and the pipeline's resource counters. With shards > 1 the stream
// goes through the sharded serving runtime instead — same program,
// flow-hashed across per-shard pipelines.
func runSimReplay(engine string, mem, keys, n, shards int, zipf float64, seed int64, solver ilp.Options, tracer *obs.Tracer) error {
	eng, err := sim.ParseEngine(engine)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "compiling NetCache for the replay...")
	app := apps.NetCache(apps.NetCacheConfig{})
	res, err := core.Compile(app.Source, pisa.EvalTarget(mem), core.Options{Solver: solver, SkipCodegen: true, Tracer: tracer})
	if err != nil {
		return err
	}
	stream := workload.ZipfKeys(seed, keys, zipf, n)
	pkts := make([]sim.Packet, len(stream))
	for i, k := range stream {
		pkts[i] = sim.Packet{"query.key": k & 0xFFFFFFFF, "query.op": 0, "ipv4.dst": k & 0xFFFFFFFF}
	}

	if shards > 1 {
		rt, err := serve.NewSimRuntime(serve.SimConfig{
			Unit: res.Unit, Layout: res.Layout, Engine: eng,
			Shards: shards, KeyField: "query.key", Tracer: tracer,
		})
		if err != nil {
			return err
		}
		warnFallback(rt.Pipelines()[0])
		start := time.Now()
		if err := rt.DispatchAll(pkts); err != nil {
			return err
		}
		rt.Drain()
		elapsed := time.Since(start)
		if err := rt.Close(); err != nil {
			return err
		}
		pps := float64(rt.Packets()) / elapsed.Seconds()
		tracer.Event("netcachesim.simreplay",
			obs.String("engine", rt.Pipelines()[0].EngineName()),
			obs.Int("shards", shards),
			obs.Int("packets", int(rt.Packets())),
			obs.Float("pkts_per_sec", pps),
		)
		fmt.Printf("engine %s, %d shards: %d packets in %v (%.0f pkts/sec aggregate)\n",
			rt.Pipelines()[0].EngineName(), shards, rt.Packets(), elapsed.Round(time.Millisecond), pps)
		for i := 0; i < rt.Shards(); i++ {
			fmt.Printf("  shard %d: %d packets\n", i, rt.ShardPackets(i))
		}
		return nil
	}

	pipe, err := sim.NewEngine(res.Unit, res.Layout, eng)
	if err != nil {
		return err
	}
	warnFallback(pipe)
	start := time.Now()
	if err := pipe.Replay(pkts, nil); err != nil {
		return err
	}
	elapsed := time.Since(start)
	stats := pipe.Stats()
	pps := float64(len(pkts)) / elapsed.Seconds()
	tracer.Event("netcachesim.simreplay",
		obs.String("engine", pipe.EngineName()),
		obs.Int("packets", len(pkts)),
		obs.Float("pkts_per_sec", pps),
	)
	fmt.Printf("engine %s: %d packets in %v (%.0f pkts/sec)\n",
		pipe.EngineName(), len(pkts), elapsed.Round(time.Millisecond), pps)
	fmt.Printf("register reads %d, writes %d, ALU ops %d\n",
		stats.RegReads, stats.RegWrites, stats.TotalALUOps())
	return nil
}

// runDrift renders the workload-drift experiment as a text table in
// the style of the p4allbench figures.
func runDrift(seed int64, solver ilp.Options, tracer *obs.Tracer) error {
	cfg := eval.DefaultDriftConfig()
	cfg.Seed = seed
	cfg.Solver.Threads = solver.Threads
	// The drift experiment's re-solves stay deterministic regardless of
	// -det: the elastic controller forces it so replays are exact.
	res, err := eval.FigureDriftTraced(cfg, tracer)
	if err != nil {
		return err
	}
	fmt.Printf("workload drift: %d keys, %d-request windows, skew %.2f -> %.2f\n\n",
		cfg.Keys, cfg.Window, cfg.Phases[0].Skew, cfg.Phases[len(cfg.Phases)-1].Skew)
	fmt.Printf("%6s %9s %8s %9s %9s %6s\n",
		"window", "top-share", "frozen", "elastic", "action", "epoch")
	for _, p := range res.Points {
		fmt.Printf("%6d %9.3f %8.3f %9.3f %9s %6d\n",
			p.Window, p.TopShare, p.HitFrozen, p.HitElastic, p.Action, p.Epoch)
	}
	fmt.Printf("\nre-solves %d (adopted %d, warm-started %v)\n", res.Resolves, res.Adoptions, res.AllWarm)
	fmt.Printf("steady-state hit rate: frozen %.3f, elastic %.3f\n", res.FrozenSteady, res.ElasticSteady)
	fmt.Printf("final kv capacity: frozen %d items, elastic %d items\n", res.FrozenKVItems, res.ElasticKVItems)
	return nil
}
