// Command e2ebench is the repository's end-to-end benchmark: elastic
// source to certified layout to served responses, on three seeded
// workloads. It calls each module's public functions from outside and
// times them; it changes nothing under internal/.
//
//	bash e2ebench/run.sh --workload compile-run --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a traced run. See METRICS.md for what each metric means on each
// workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark run. The inject hooks exist for the
// benchmark's self-test: they corrupt one output so the test can see
// the check that must catch it.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every workload to a few operations (self-test).
	Tiny bool
	// InjectWrongReply flips the value of one UDP reply before it is
	// checked; InjectDivergence alters one default-engine replay
	// output before it is compared with the interpreter's.
	InjectWrongReply bool
	InjectDivergence bool
}

// budget is how long the measured section runs; a traced run splits it
// between an untraced and a traced pass over the same operations.
func (c config) budget() time.Duration {
	d := time.Duration(c.Seconds * float64(time.Second))
	if c.Trace {
		d /= 2
	}
	return d
}

// count is how many operations, rounds or passes the measured section
// runs: 0 means as many as the budget allows.
func (c config) count() int {
	if c.Tiny {
		return 1
	}
	return 0
}

// result collects one run's outcome.
type result struct {
	attempted, failed int
	// wrong is set when a check found a wrong output value (as opposed
	// to an operation that failed, such as an unproved certificate).
	wrong   bool
	tr      *tracer // the traced pass's spans (traced runs only)
	e2e     map[string]metric
	layers  map[string]metric
	reasons map[string]int
	checks  map[string]*checkTally
	order   []string // check names in first-seen order
}

// checkTally is one named check's outcomes over a run.
type checkTally struct {
	runs, fails int
	reason      string // the first failure's
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}, reasons: map[string]int{}, checks: map[string]*checkTally{}}
}

func (r *result) endToEnd(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string)    { r.layers[name] = metric{v, unit} }

// op counts one attempted operation; a non-empty reason marks it failed.
func (r *result) op(reason string) {
	r.attempted++
	if reason != "" {
		r.failed++
		r.reasons[reason]++
	}
}

// check records one outcome of the named check; a non-empty reason
// marks it failed. A check repeats in every round or pass, but a run
// reports it as one operation, failed if any outcome failed: how many
// rounds fit in a run depends on the machine, attempted and failed must
// not.
func (r *result) check(name, reason string) {
	t := r.checks[name]
	if t == nil {
		t = &checkTally{}
		r.checks[name] = t
		r.order = append(r.order, name)
	}
	t.runs++
	if reason != "" {
		if t.fails == 0 {
			t.reason = reason
		}
		t.fails++
	}
}

// wrongCheck records a failed outcome whose output was wrong.
func (r *result) wrongCheck(name, reason string) {
	r.wrong = true
	r.check(name, reason)
}

// foldChecks counts each check as one operation.
func (r *result) foldChecks() {
	for _, name := range r.order {
		t := r.checks[name]
		reason := ""
		if t.fails > 0 {
			reason = fmt.Sprintf("%s (%s: %d of %d)", t.reason, name, t.fails, t.runs)
		}
		r.op(reason)
	}
}

var workloads = map[string]func(config, *result) error{
	"compile-run":     runCompile,
	"tenant-reweight": runTenant,
	"serve-mixed":     runServe,
}

// run executes one workload and returns the metrics the mode reports,
// checked against the catalog: every catalog name of the mode is
// present with its unit, and nothing else is.
func run(cfg config) (*result, map[string]metric, error) {
	f, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	r := newResult()
	if err := f(cfg, r); err != nil {
		return nil, nil, err
	}
	r.foldChecks()
	if cfg.Trace {
		out, err := fill(r.layers, perLayerCatalog(), true)
		return r, out, err
	}
	r.endToEnd("peak_rss_mb", peakRSSMB(), "MB")
	out, err := fill(r.e2e, endToEndCatalog(), false)
	return r, out, err
}

// fill checks got against the catalog. Per-layer metrics of a layer the
// workload never calls read 0; a missing end-to-end metric is an error.
func fill(got map[string]metric, catalog []metricDef, zeroMissing bool) (map[string]metric, error) {
	out := make(map[string]metric, len(catalog))
	for _, d := range catalog {
		m, ok := got[d.Name]
		switch {
		case !ok && zeroMissing:
			m = metric{0, d.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s has unit %s, catalog says %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = m
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return out, nil
}

// more reports whether a measured loop runs iteration k: always the
// first; then, when n > 0, the first n; else while the budget lasts.
func more(k, n int, start time.Time, budget time.Duration) bool {
	switch {
	case k == 0:
		return true
	case n > 0:
		return k < n
	}
	return time.Since(start) < budget
}

// setUp runs a workload's set-up reps times, each from a collected
// heap, and returns the median time: setup_s.
func setUp(reps int, f func() error) (float64, error) {
	times := make([]float64, reps)
	for k := range times {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[k] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// peakRSSMB reads the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var spansDir string
	flag.StringVar(&cfg.Workload, "workload", "", "compile-run, tenant-reweight or serve-mixed")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: not written)")
	flag.Parse()
	cfg.Trace = trace == 1
	if err := mainErr(cfg, spansDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, spansDir string) error {
	if cfg.Seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	r, metrics, err := run(cfg)
	if err != nil {
		return err
	}
	if r.tr != nil && spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
	}
	printHuman(cfg, r, metrics)
	line, err := json.Marshal(output{Correct: !r.wrong, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printHuman writes one metric per line, then any failure reasons.
func printHuman(cfg config, r *result, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("attempted %d failed %d\n", r.attempted, r.failed)
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("failure x%d: %s\n", r.reasons[k], k)
	}
}
