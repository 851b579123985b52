package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(defs []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// checkEmitted holds one run's metrics to the names and units
// BENCHMARK.json lists for its mode.
func checkEmitted(t *testing.T, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", name)
		case m.Unit != unit:
			t.Errorf("%s emitted with unit %s, BENCHMARK.json says %s", name, m.Unit, unit)
		case positive && m.Value <= 0:
			t.Errorf("%s = %g, want > 0", name, m.Value)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit, and every end-to-end metric is positive.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and serves for about a minute")
	}
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			r, got, err := run(config{Workload: w.Name, Seed: 7, Seconds: 1, Trace: traced, Tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if r.wrong {
				t.Errorf("%s trace=%v: a check found a wrong output: %v", w.Name, traced, r.reasons)
			}
			if traced {
				checkEmitted(t, got, names(b.PerLayer), false)
			} else {
				checkEmitted(t, got, names(b.EndToEnd), true)
			}
		}
	}
}

// TestInjectedWrongReplyCounted corrupts one UDP reply's value: the
// reply check must count it as a failed operation with a wrong output.
func TestInjectedWrongReplyCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles NetCache and serves")
	}
	r, _, err := run(config{Workload: "serve-mixed", Seed: 7, Seconds: 1, Tiny: true, InjectWrongReply: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.wrong || r.failed == 0 || r.reasons["wrong reply: wrong value"] != 1 {
		t.Errorf("wrong reply not counted: wrong=%v failed=%d reasons=%v", r.wrong, r.failed, r.reasons)
	}
}

// TestInjectedDivergenceCounted alters one default-engine output: the
// comparison with the interpreter must count it.
func TestInjectedDivergenceCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the five apps")
	}
	r, _, err := run(config{Workload: "compile-run", Seed: 7, Seconds: 1, Tiny: true, InjectDivergence: true})
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for why, k := range r.reasons {
		if strings.HasPrefix(why, "default engine differs from the interpreter") {
			diverged += k
		}
	}
	if !r.wrong || diverged != len(appKeys) {
		t.Errorf("divergence not counted for every app: wrong=%v diverged=%d reasons=%v", r.wrong, diverged, r.reasons)
	}
}

// TestChecksFoldToOneOperationEach repeats two checks over a varying
// number of rounds: attempted and failed must not follow the rounds.
func TestChecksFoldToOneOperationEach(t *testing.T) {
	for _, rounds := range []int{1, 3, 8} {
		r := newResult()
		for k := 0; k < rounds; k++ {
			r.check("ok", "")
			reason := ""
			if k == 0 {
				reason = "first round failed"
			}
			r.check("flaky", reason)
		}
		r.foldChecks()
		if r.attempted != 2 || r.failed != 1 {
			t.Errorf("%d rounds: attempted %d failed %d, want 2 and 1", rounds, r.attempted, r.failed)
		}
		want := fmt.Sprintf("first round failed (flaky: 1 of %d)", rounds)
		if r.reasons[want] != 1 {
			t.Errorf("%d rounds: reasons %v, want %q", rounds, r.reasons, want)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the code's metric catalogs and
// BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchFile(t)
	for _, c := range []struct {
		mode    string
		catalog []metricDef
		listed  map[string]string
	}{
		{"end_to_end", endToEndCatalog(), names(b.EndToEnd)},
		{"per_layer", perLayerCatalog(), names(b.PerLayer)},
	} {
		if len(c.catalog) != len(c.listed) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", c.mode, len(c.catalog), len(c.listed))
		}
		for _, d := range c.catalog {
			if u, ok := c.listed[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s (%s) listed as %q", c.mode, d.Name, d.Unit, u)
			}
		}
	}
}
