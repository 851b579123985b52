// Benchmarks for the behavioral pipeline's two execution engines: the
// reference AST interpreter and the bytecode VM (internal/sim/vm.go);
// see docs/SIM_PERF.md. Each of the four suite apps runs under both
// engines so the VM's speedup and zero-allocation steady state are
// measured where they matter — BenchmarkSimReplay/<app>/engine=vm feeds
// cmd/benchgate's ns/op and allocs/op gates, and is additionally held
// to a floor multiple of the same run's engine=interp pkts/sec by the
// cross-engine ratio gate.
package p4all_test

import (
	"sync"
	"testing"

	"p4all/internal/core"
	"p4all/internal/difftest"
	"p4all/internal/ilp"
	"p4all/internal/pisa"
	"p4all/internal/sim"
)

// simBenchStreamN packets per replay, a stream long enough that frame
// setup amortizes but short enough for -benchtime=3x runs.
const simBenchStreamN = 4096

var simBench struct {
	sync.Once
	compiled map[string]*core.Result
	streams  map[string][]sim.Packet
	err      error
}

// simBenchSetup compiles the difftest suite once per process (the
// solves dominate otherwise) and generates one deterministic stream
// per app.
func simBenchSetup(b *testing.B) (map[string]*core.Result, map[string][]sim.Packet) {
	b.Helper()
	simBench.Do(func() {
		simBench.compiled = make(map[string]*core.Result)
		simBench.streams = make(map[string][]sim.Packet)
		opts := core.Options{Solver: ilp.Options{Deterministic: true, Gap: 0.1}, SkipCodegen: true}
		for _, spec := range difftest.Specs() {
			res, err := core.Compile(spec.Source, pisa.EvalTarget(pisa.Mb), opts)
			if err != nil {
				simBench.err = err
				return
			}
			simBench.compiled[spec.Name] = res
			simBench.streams[spec.Name] = difftest.GenStream(spec, 1, simBenchStreamN)
		}
	})
	if simBench.err != nil {
		b.Fatal(simBench.err)
	}
	return simBench.compiled, simBench.streams
}

func simBenchEngines() []sim.Engine {
	return []sim.Engine{sim.EngineInterp, sim.EngineVM}
}

// newBenchPipeline builds a pipeline for one (app, engine) cell and
// fails the benchmark if the VM silently fell back.
func newBenchPipeline(b *testing.B, res *core.Result, eng sim.Engine) *sim.Pipeline {
	b.Helper()
	pipe, err := sim.NewEngine(res.Unit, res.Layout, eng)
	if err != nil {
		b.Fatal(err)
	}
	if eng != sim.EngineInterp && pipe.EngineName() != eng.String() {
		b.Fatalf("%s lowering fell back: %v", eng, pipe.Fallback())
	}
	return pipe
}

// BenchmarkSimProcess measures the per-packet compatibility API (one
// output map per call) on each app under both engines.
func BenchmarkSimProcess(b *testing.B) {
	compiled, streams := simBenchSetup(b)
	for _, spec := range difftest.Specs() {
		res, stream := compiled[spec.Name], streams[spec.Name]
		for _, eng := range simBenchEngines() {
			eng := eng
			b.Run(spec.Name+"/engine="+eng.String(), func(b *testing.B) {
				pipe := newBenchPipeline(b, res, eng)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipe.Process(stream[i%len(stream)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
			})
		}
	}
}

// BenchmarkSimReplay measures the batched API: one op is a full
// 4096-packet replay whose sink reads the app's key field through the
// slot view. On the VM this is the zero-allocation steady state the
// acceptance gate pins (allocs/op must stay 0).
func BenchmarkSimReplay(b *testing.B) {
	compiled, streams := simBenchSetup(b)
	for _, spec := range difftest.Specs() {
		res, stream := compiled[spec.Name], streams[spec.Name]
		key := sim.Key(spec.Fields[0].Name, -1)
		for _, eng := range simBenchEngines() {
			eng := eng
			b.Run(spec.Name+"/engine="+eng.String(), func(b *testing.B) {
				pipe := newBenchPipeline(b, res, eng)
				var sum uint64
				sink := func(i int, v sim.View) error {
					val, _ := v.Get(key)
					sum += val
					return nil
				}
				// One warm-up replay settles lazily-grown state before
				// the allocation count starts.
				if err := pipe.Replay(stream, sink); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := pipe.Replay(stream, sink); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
				_ = sum
			})
		}
	}
}
