package sim

import (
	"strings"
	"testing"

	"p4all/internal/core"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/workload"
)

// compilePair builds a VM pipeline and an interpreter pipeline for the
// same source, asserting the VM did not silently fall back.
func compilePair(t *testing.T, src string, tgt pisa.Target) (vm, interp *Pipeline) {
	t.Helper()
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm, err = New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if vm.EngineName() != "vm" {
		t.Fatalf("VM lowering fell back: %v", vm.Fallback())
	}
	interp, err = NewEngine(res.Unit, res.Layout, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if interp.EngineName() != "interp" {
		t.Fatal("EngineInterp lowered to the VM")
	}
	return vm, interp
}

func simTestTarget() pisa.Target {
	return pisa.Target{
		Name: "sim-test", Stages: 6, MemoryBits: 1 << 15,
		StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096,
	}
}

// assertSameOutputs compares two output maps exactly (both directions).
func assertSameOutputs(t *testing.T, i int, got, interp map[string]uint64) {
	t.Helper()
	for k, v := range interp {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("packet %d field %s: vm %d (present=%v), interp %d", i, k, gv, ok, v)
		}
	}
	for k := range got {
		if _, ok := interp[k]; !ok {
			t.Fatalf("packet %d: vm emitted extra field %s = %d", i, k, got[k])
		}
	}
}

// TestReplayMatchesProcess checks the batched API against per-packet
// Process on a fresh pipeline: View.Get, View.Map, and output
// presence/absence must agree.
func TestReplayMatchesProcess(t *testing.T) {
	vm, _ := compilePair(t, modules.StandaloneCMS(), simTestTarget())
	ref, _ := compilePair(t, modules.StandaloneCMS(), simTestTarget())
	keys := workload.ZipfKeys(9, 100, 1.0, 500)
	pkts := make([]Packet, len(keys))
	for i, k := range keys {
		pkts[i] = Packet{"pkt.flow": k}
	}
	minKey := Key("cms_meta.min", -1)
	err := vm.Replay(pkts, func(i int, v View) error {
		want, err := ref.Process(pkts[i])
		if err != nil {
			return err
		}
		got, ok := v.Get(minKey)
		if !ok {
			t.Fatalf("packet %d: %s missing from view", i, minKey)
		}
		if got != want[minKey] {
			t.Fatalf("packet %d: view %s = %d, Process %d", i, minKey, got, want[minKey])
		}
		if _, ok := v.Get("no.such.field"); ok {
			t.Fatalf("packet %d: view invented a field", i)
		}
		assertSameOutputs(t, i, v.Map(), want)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplayZeroAllocs is the acceptance criterion's steady-state
// check: a full VM replay with a reading sink must not allocate.
func TestReplayZeroAllocs(t *testing.T) {
	vm, _ := compilePair(t, modules.StandaloneCMS(), simTestTarget())
	keys := workload.ZipfKeys(2, 500, 1.1, 256)
	pkts := make([]Packet, len(keys))
	for i, k := range keys {
		pkts[i] = Packet{"pkt.flow": k}
	}
	minKey := Key("cms_meta.min", -1)
	var sum uint64
	sink := func(i int, v View) error {
		val, _ := v.Get(minKey)
		sum += val
		return nil
	}
	// Warm up once so lazily-grown internal state settles.
	if err := vm.Replay(pkts, sink); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := vm.Replay(pkts, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("VM replay allocated %.1f objects per run, want 0", allocs)
	}
	_ = sum
}

// TestStaleStateInvisible replays a packet that sets fields, then one
// that does not; the second packet must not see or emit the first's
// values (the generation stamp is the only thing clearing the frame).
func TestStaleStateInvisible(t *testing.T) {
	vm, interp := compilePair(t, modules.StandaloneCMS(), simTestTarget())
	out1, err := vm.Process(Packet{"pkt.flow": 7, "stray.key": 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out1["stray.key"]; !ok {
		t.Fatal("first packet's stray field missing from output")
	}
	out2, err := vm.Process(Packet{"pkt.flow": 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out2["stray.key"]; ok {
		t.Fatal("stray field from packet 1 leaked into packet 2's output")
	}
	// And the reference engine agrees on the second packet.
	if _, err := interp.Process(Packet{"pkt.flow": 7, "stray.key": 99}); err != nil {
		t.Fatal(err)
	}
	want, err := interp.Process(Packet{"pkt.flow": 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, 1, out2, want)
}

func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{EngineVM, EngineInterp} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Fatalf("ParseEngine(%s) = %v, %v", e, got, err)
		}
	}
	for _, bad := range []string{"plan", "jit"} {
		if _, err := ParseEngine(bad); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Fatalf("ParseEngine(%s) error = %v", bad, err)
		}
	}
}

func TestKey(t *testing.T) {
	if got := Key("meta.count", 12); got != "meta.count@12" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("cms_meta.min", -1); got != "cms_meta.min" {
		t.Fatalf("scalar Key = %q", got)
	}
	if got := instKey("m.f", 0); got != "m.f@0" {
		t.Fatalf("instKey zero = %q", got)
	}
}

// TestInterpReplayFallback: the batched API must work (with per-packet
// maps) when the interpreter runs.
func TestInterpReplayFallback(t *testing.T) {
	_, interp := compilePair(t, modules.StandaloneCMS(), simTestTarget())
	pkts := []Packet{{"pkt.flow": 1}, {"pkt.flow": 1}}
	minKey := Key("cms_meta.min", -1)
	var last uint64
	if err := interp.Replay(pkts, func(i int, v View) error {
		val, ok := v.Get(minKey)
		if !ok {
			t.Fatalf("packet %d: %s missing", i, minKey)
		}
		last = val
		if mv := v.Map(); mv[minKey] != val {
			t.Fatalf("packet %d: Map and Get disagree", i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != 2 {
		t.Fatalf("second estimate = %d, want 2", last)
	}
}
