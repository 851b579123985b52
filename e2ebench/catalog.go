package main

// metricDef names one reported metric and its unit. The catalogs below
// must match BENCHMARK.json; the self-test holds them to it.
type metricDef struct {
	Name string
	Unit string
}

// endToEndCatalog lists the metrics a user of the system sees. Each is
// measured on every workload; METRICS.md gives its meaning per workload.
func endToEndCatalog() []metricDef {
	return []metricDef{
		{"setup_s", "s"},
		{"latency_ms", "ms"},
		{"longest_wait_ms", "ms"},
		{"throughput_per_s", "1/s"},
		{"quality", "score"},
		{"peak_rss_mb", "MB"},
	}
}

// appKeys are the metric suffixes of the five compile-run apps.
var appKeys = []string{"netcache", "sketchlearn", "precision", "conquest", "flowradar"}

// perLayerCatalog lists the traced run's metrics. A workload reports 0
// for a layer it never calls.
func perLayerCatalog() []metricDef {
	var out []metricDef
	for _, a := range appKeys {
		out = append(out,
			metricDef{"lang.parse_s." + a, "s"},
			metricDef{"unroll.bounds_s." + a, "s"},
			metricDef{"ilpgen.generate_s." + a, "s"},
			metricDef{"ilp.solve_s." + a, "s"},
			metricDef{"ilp.nodes." + a, "count"},
			metricDef{"ilp.simplex_iters." + a, "count"},
			metricDef{"ilp.dual_share." + a, "ratio"},
			metricDef{"codegen.emit_s." + a, "s"},
			metricDef{"tv.validate_s." + a, "s"},
			metricDef{"tv.paths." + a, "count"},
			metricDef{"sim.lower_s." + a, "s"},
			metricDef{"sim.replay_s." + a, "s"},
			metricDef{"sim.allocs_per_pkt." + a, "count"},
			metricDef{"sim.interp_fallback." + a, "count"},
		)
	}
	out = append(out,
		metricDef{"ilp.solve_s.cold", "s"},
		metricDef{"ilp.nodes.cold", "count"},
		metricDef{"ilp.solve_s.reweight", "s"},
		metricDef{"ilp.nodes.reweight", "count"},
		metricDef{"ilp.simplex_iters.reweight", "count"},
		metricDef{"ilp.dual_share.reweight", "ratio"},
		metricDef{"ilp.primal_fallbacks.reweight", "count"},
		metricDef{"multitenant.warm_share", "ratio"},
		metricDef{"multitenant.parse_s", "s"},
		metricDef{"multitenant.bounds_s", "s"},
		metricDef{"multitenant.generate_s", "s"},
		metricDef{"check.isolation_s", "s"},
		metricDef{"tv.validate_s.joint", "s"},

		metricDef{"serve.runtime_rps", "1/s"},
		metricDef{"serve.socket_share", "ratio"},
		metricDef{"serve.batch_mean.low", "count"},
		metricDef{"serve.batch_mean.high", "count"},
		metricDef{"serve.gen_late_ms.low", "ms"},
		metricDef{"serve.gen_late_ms.high", "ms"},
		metricDef{"serve.lat_p99_ms.low", "ms"},
		metricDef{"serve.lat_p50_ms.high", "ms"},
		metricDef{"serve.lat_p99_ms.high", "ms"},
		metricDef{"serve.samples.low", "count"},
		metricDef{"serve.samples.high", "count"},
		metricDef{"serve.drops", "count"},
		metricDef{"serve.lost", "count"},
		metricDef{"structures.hits", "count"},
		metricDef{"structures.misses", "count"},
		metricDef{"structures.admits", "count"},
	)
	for _, l := range layerNames {
		out = append(out, metricDef{"self_s." + l, "s"})
	}
	out = append(out,
		metricDef{"trace.untraced_s", "s"},
		metricDef{"trace.traced_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
	return out
}
