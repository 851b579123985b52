package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/workload"
)

// vmSuite compiles every program in the repository once per test
// binary — the four Figure 11 apps, FlowRadar, HashPipe, and the six
// standalone library modules — and each test builds fresh pipelines
// from the cached unit/layout. Every one of them must lower to the VM.
type vmSuiteApp struct {
	name   string
	res    *core.Result
	fields []string // packet fields, key first
}

var (
	vmSuiteOnce sync.Once
	vmSuiteApps []vmSuiteApp
	vmSuiteErr  error
)

func vmSuite(t *testing.T) []vmSuiteApp {
	t.Helper()
	vmSuiteOnce.Do(func() {
		flow := []string{"pkt.flow", "pkt.len"}
		fields := map[string][]string{
			"NetCache":    {"query.key", "query.op", "ipv4.dst"},
			"SketchLearn": flow,
			"Precision":   flow,
			"ConQuest":    {"pkt.flow", "pkt.qdepth"},
			"FlowRadar":   flow,
			"HashPipe":    flow,
		}
		progs := append(apps.All(), apps.FlowRadar(), apps.HashPipe())
		for _, m := range []struct{ name, src string }{
			{"CMS", modules.StandaloneCMS()},
			{"Bloom", modules.StandaloneBloom()},
			{"KVS", modules.StandaloneKVS()},
			{"HashTable", modules.StandaloneHashTable()},
			{"CountingTable", modules.StandaloneCountingTable()},
			{"IDTable", modules.StandaloneIDTable()},
		} {
			progs = append(progs, apps.App{Name: m.name, Source: m.src})
			fields[m.name] = []string{"pkt.flow", "pkt.payload"}
		}
		for _, app := range progs {
			res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), core.Options{
				Solver:      ilp.Options{Deterministic: true, Gap: 0.1},
				SkipCodegen: true,
			})
			if err != nil {
				vmSuiteErr = fmt.Errorf("%s: %w", app.Name, err)
				return
			}
			vmSuiteApps = append(vmSuiteApps, vmSuiteApp{name: app.Name, res: res, fields: fields[app.Name]})
		}
	})
	if vmSuiteErr != nil {
		t.Fatalf("compile suite: %v", vmSuiteErr)
	}
	return vmSuiteApps
}

// vmStream builds a deterministic packet stream: zipf-distributed keys
// (so take-min guards go both ways) plus hash-derived secondary fields,
// and an undeclared field so the overflow path is covered.
func vmStream(app vmSuiteApp, seed int64, n int) []Packet {
	keys := workload.ZipfKeys(seed, 200, 1.05, n)
	pkts := make([]Packet, n)
	for i, k := range keys {
		p := Packet{app.fields[0]: k, "pkt.unknown": k ^ 0xABCD}
		for j, f := range app.fields[1:] {
			p[f] = hashUint(uint64(i), uint64(j)) & 0xFFFF
		}
		pkts[i] = p
	}
	return pkts
}

// seedVMRegisters fills every materialized register instance with
// deterministic nonzero state (both pipelines identically), so
// read-only register loads — the key-value store, the hash-table key
// array — return real data instead of zeros.
func seedVMRegisters(p *Pipeline) {
	for name, insts := range p.regs {
		for i, cells := range insts {
			for c := range cells {
				cells[c] = hashUint(uint64(c), uint64(i)) & 0xFFFF
				_ = name
			}
		}
	}
}

func newVMPair(t *testing.T, app vmSuiteApp) (vm, interp *Pipeline) {
	t.Helper()
	vm, err := New(app.res.Unit, app.res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if vm.EngineName() != "vm" {
		t.Fatalf("%s: VM lowering fell back: %v", app.name, vm.Fallback())
	}
	interp, err = NewEngine(app.res.Unit, app.res.Layout, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	seedVMRegisters(vm)
	seedVMRegisters(interp)
	return vm, interp
}

// TestVMMatchesInterpreterOnApps is the scalar half of the acceptance
// bar: Process through the VM must be bit-identical to the reference
// interpreter — outputs, Stats, and register state — on every in-repo
// program.
func TestVMMatchesInterpreterOnApps(t *testing.T) {
	for _, app := range vmSuite(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, interp := newVMPair(t, app)
			pkts := vmStream(app, 3, 1500)
			for i, pkt := range pkts {
				a, err := vm.Process(pkt)
				if err != nil {
					t.Fatalf("vm packet %d: %v", i, err)
				}
				b, err := interp.Process(pkt)
				if err != nil {
					t.Fatalf("interp packet %d: %v", i, err)
				}
				assertSameOutputs(t, i, a, b)
			}
			assertSameCounters(t, vm, interp)
		})
	}
}

func assertSameCounters(t *testing.T, a, b *Pipeline) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.Packets != sb.Packets || sa.RegReads != sb.RegReads || sa.RegWrites != sb.RegWrites {
		t.Fatalf("counter mismatch: %+v vs %+v", sa, sb)
	}
	for i := range sa.ALUOps {
		if sa.ALUOps[i] != sb.ALUOps[i] {
			t.Fatalf("stage %d ALU ops: %d vs %d", i, sa.ALUOps[i], sb.ALUOps[i])
		}
	}
	snapA, snapB := a.Snapshot(), b.Snapshot()
	for name, insts := range snapA.Regs {
		for i := range insts {
			for c := range insts[i] {
				if insts[i][c] != snapB.Regs[name][i][c] {
					t.Fatalf("register %s/%d cell %d: %d vs %d",
						name, i, c, insts[i][c], snapB.Regs[name][i][c])
				}
			}
		}
	}
}

// TestVMBatchMatchesProcess drives the struct-of-arrays batch path
// (Replay) against a fresh interpreter processing the same stream one
// packet at a time. Batch boundaries fall mid-stream (n is not a
// multiple of vmLanes), so partial tail batches are covered too.
func TestVMBatchMatchesProcess(t *testing.T) {
	for _, app := range vmSuite(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, interp := newVMPair(t, app)
			pkts := vmStream(app, 7, 5*vmLanes+17)
			err := vm.Replay(pkts, func(i int, v View) error {
				want, err := interp.Process(pkts[i])
				if err != nil {
					return err
				}
				assertSameOutputs(t, i, v.Map(), want)
				keyField := app.fields[0]
				got, ok := v.Get(keyField)
				if !ok || got != want[keyField] {
					t.Fatalf("packet %d: View.Get(%s) = %d,%v want %d", i, keyField, got, ok, want[keyField])
				}
				if _, ok := v.Get("no.such.field"); ok {
					t.Fatalf("packet %d: view invented a field", i)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameCounters(t, vm, interp)
		})
	}
}

// TestVMSnapshotRestore checks Snapshot/Restore round-trips through a
// VM pipeline mid-replay — the elastic controller's swap protocol path.
func TestVMSnapshotRestore(t *testing.T) {
	app := vmSuite(t)[0]
	vm, interp := newVMPair(t, app)
	pkts := vmStream(app, 11, 3*vmLanes)
	if err := vm.Replay(pkts[:vmLanes], nil); err != nil {
		t.Fatal(err)
	}
	if err := interp.Replay(pkts[:vmLanes], nil); err != nil {
		t.Fatal(err)
	}
	snap := vm.Snapshot()
	if err := vm.Replay(pkts[vmLanes:], nil); err != nil {
		t.Fatal(err)
	}
	if err := vm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// After restore, the VM pipeline must agree with the interpreter
	// that only saw the first batch.
	assertSameSnapshots(t, vm, interp)
	// And processing resumes correctly on the restored state.
	if err := vm.Replay(pkts[vmLanes:], nil); err != nil {
		t.Fatal(err)
	}
	if err := interp.Replay(pkts[vmLanes:], nil); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshots(t, vm, interp)
}

func assertSameSnapshots(t *testing.T, a, b *Pipeline) {
	t.Helper()
	snapA, snapB := a.Snapshot(), b.Snapshot()
	for name, insts := range snapA.Regs {
		for i := range insts {
			for c := range insts[i] {
				if insts[i][c] != snapB.Regs[name][i][c] {
					t.Fatalf("register %s/%d cell %d: %d vs %d",
						name, i, c, insts[i][c], snapB.Regs[name][i][c])
				}
			}
		}
	}
}

// TestVMReplayZeroAllocs is the acceptance criterion's steady-state
// check on the batched VM loop, per app.
func TestVMReplayZeroAllocs(t *testing.T) {
	for _, app := range vmSuite(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, _ := newVMPair(t, app)
			pkts := vmStream(app, 2, 4*vmLanes)
			keyField := app.fields[0]
			var sum uint64
			sink := func(i int, v View) error {
				val, _ := v.Get(keyField)
				sum += val
				return nil
			}
			// Warm up so lazily-grown extra-key slices settle.
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
		})
	}
}

// TestVMOpcodeCoverage asserts every opcode the lowering can emit is
// exercised by at least one in-repo program. An unreached opcode is a
// dead lowering path: either the lowering grew a motif no program
// needs, or the suite shrank — both are bugs here.
func TestVMOpcodeCoverage(t *testing.T) {
	emittedBy := make(map[vmOp][]string)
	for _, app := range vmSuite(t) {
		vm, err := New(app.res.Unit, app.res.Layout)
		if err != nil {
			t.Fatal(err)
		}
		if vm.vm == nil {
			t.Fatalf("%s: VM lowering fell back: %v", app.name, vm.Fallback())
		}
		seen := make(map[vmOp]bool)
		for _, in := range vm.vm.code {
			if !seen[in.op] {
				seen[in.op] = true
				emittedBy[in.op] = append(emittedBy[in.op], app.name)
			}
		}
	}
	for op := vmOp(0); op < vmOpCount; op++ {
		if len(emittedBy[op]) == 0 {
			t.Errorf("opcode %s is emitted by no in-repo program — dead lowering path", op)
		} else {
			t.Logf("opcode %-12s exercised by %v", op, emittedBy[op])
		}
	}
}

// TestVMBatchSegments sanity-checks the hazard analysis on a real app:
// segments must partition the instruction stream, and every register
// write must land in a serial segment.
func TestVMBatchSegments(t *testing.T) {
	for _, app := range vmSuite(t) {
		vm, err := New(app.res.Unit, app.res.Layout)
		if err != nil {
			t.Fatal(err)
		}
		prog := vm.vm
		if prog == nil {
			t.Fatalf("%s: fell back: %v", app.name, vm.Fallback())
		}
		pos := int32(0)
		serialAt := make(map[int32]bool)
		for _, sg := range prog.segs {
			if sg.start != pos || sg.end <= sg.start {
				t.Fatalf("%s: segment [%d,%d) does not continue at %d", app.name, sg.start, sg.end, pos)
			}
			for pc := sg.start; pc < sg.end; pc++ {
				serialAt[pc] = sg.serial
			}
			pos = sg.end
		}
		if pos != int32(len(prog.code)) {
			t.Fatalf("%s: segments end at %d, code has %d instructions", app.name, pos, len(prog.code))
		}
		for pc, in := range prog.code {
			if in.writesReg() && !serialAt[int32(pc)] {
				t.Fatalf("%s: register write at pc %d is in a vector segment", app.name, pc)
			}
		}
	}
}

// TestVMFallback: a program that can abort at runtime (a dynamic
// divisor) must fall back to the interpreter and still execute
// correctly.
func TestVMFallback(t *testing.T) {
	src := `
header hdr { bit<32> a; bit<32> b; }
struct meta { bit<32> q; }
action div() { meta.q = hdr.a / hdr.b; }
control main { apply { div(); } }
`
	res, err := core.Compile(src, pisa.RunningExampleTarget(), core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if vm.EngineName() != "interp" {
		t.Fatalf("engine = %s, want interp fallback", vm.EngineName())
	}
	if vm.Fallback() == nil {
		t.Fatal("Fallback() = nil after VM lowering rejection")
	}
	out, err := vm.Process(Packet{"hdr.a": 10, "hdr.b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if out["meta.q"] != 5 {
		t.Fatalf("meta.q = %d, want 5", out["meta.q"])
	}
	// The interpreter's runtime error behavior is preserved.
	if _, err := vm.Process(Packet{"hdr.a": 10, "hdr.b": 0}); err == nil {
		t.Fatal("division by zero did not error through the fallback")
	}
}

// TestParseEngineVM pins the vm spelling and the VM as the zero
// Engine, which is what makes it the default of every config struct
// that carries an Engine.
func TestParseEngineVM(t *testing.T) {
	if e, err := ParseEngine("vm"); err != nil || e != EngineVM {
		t.Fatalf("ParseEngine(vm) = %v, %v", e, err)
	}
	if EngineVM.String() != "vm" {
		t.Fatalf("EngineVM.String() = %q", EngineVM.String())
	}
	var zero Engine
	if zero != EngineVM {
		t.Fatalf("zero Engine = %v, want vm", zero)
	}
}

// TestVMBatchSameCellHazard packs one 64-lane batch with packets that
// hit the same Bloom cells — the filter is read and then written in
// the same step, so a lane's read depends on the previous lane's write.
// The batch must equal packet-by-packet Process.
func TestVMBatchSameCellHazard(t *testing.T) {
	var app vmSuiteApp
	for _, a := range vmSuite(t) {
		if a.name == "Bloom" {
			app = a
		}
	}
	vm, interp := newVMPair(t, app)
	pkts := make([]Packet, vmLanes)
	for i := range pkts {
		pkts[i] = Packet{"pkt.flow": uint64(i % 3)}
	}
	err := vm.Replay(pkts, func(i int, v View) error {
		want, err := interp.Process(pkts[i])
		if err != nil {
			return err
		}
		assertSameOutputs(t, i, v.Map(), want)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounters(t, vm, interp)
}

// TestVMMatchesInterpreterOnConstructs covers the generic lowering on
// constructs no library module emits: unary operators, short-circuit
// connectives, if/else inside an action body, header stores, builtins
// outside the hash-index motif, constant divisors, computed register
// stores, constant-expression field indexes (which charge ALU ops),
// and guards that are not a plain comparison.
// Each program must lower without falling back and match the
// interpreter bit for bit over a random stream.
func TestVMMatchesInterpreterOnConstructs(t *testing.T) {
	const hdr = `header pkt { bit<8> a; bit<16> b; bit<32> c; }
`
	progs := map[string]string{
		"unary": hdr + `struct meta { bit<32> x; bit<8> y; bit<1> z; }
action u() { meta.x = -pkt.a; meta.y = -(pkt.b + 1); meta.z = !pkt.a; }
control main { apply { u(); } }`,
		"logic": hdr + `struct meta { bit<8> x; bit<8> y; bit<8> z; }
action l() {
    meta.x = pkt.a < 100 && pkt.b > 20000;
    meta.y = pkt.a == 3 || pkt.c % 5 == 0;
    meta.z = meta.x || meta.z && pkt.a;
    meta.y = pkt.b && meta.y;
}
control main { apply { l(); } }`,
		"ifelse": hdr + `struct meta { bit<16> x; bit<16> y; }
action f() {
    if (pkt.a > 128) {
        meta.x = pkt.b / 3;
        if (pkt.c != 7) { meta.y = 1; } else { meta.y = 2; }
    } else {
        meta.x = max(pkt.a, pkt.b) - min(pkt.c, 9);
    }
}
control main { apply { f(); } }`,
		"header-store": hdr + `struct meta { bit<32> h; }
action s() { pkt.a = pkt.a * 3 + 1; pkt.b = pkt.a; meta.h = hash(pkt.c, pkt.a) % 1000 + hash(pkt.b, 2); }
control main { apply { s(); } }`,
		"registers": hdr + `symbolic int n;
struct meta { bit<32>[n] i; bit<32> v; }
register<bit<16>>[64][n] r;
action w()[int k] {
    meta.i[k] = (pkt.c + k) % 64;
    r[k][meta.i[k]] = pkt.b - meta.i[k];
    r[k][meta.i[k] + 1] = r[k][meta.i[k] + 1] + pkt.a;
    meta.v = meta.v + r[k][(meta.i[k] * 7) % 64] + r[k][meta.i[k]];
    meta.i[k] = r[k][meta.i[k]] + 1;
}
action c() { meta.v = meta.i[1 - 1] + 1; meta.i[2 - 2] = meta.v * 3; }
control main { apply { for (k < n) { w()[k]; } c(); } }
assume n >= 1 && n <= 2;
optimize n;`,
		"guards": hdr + `struct meta { bit<8> g; bit<8> h; }
action m() { meta.g = 1; }
action n() { meta.h = pkt.a; }
control main { apply {
    if (pkt.a) { m(); }
    if (pkt.b >= 300 && meta.g == 1) { n(); }
} }`,
	}
	rng := rand.New(rand.NewSource(5))
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			vm, interp := compilePair(t, src, simTestTarget())
			pkts := make([]Packet, 3*vmLanes+5)
			for i := range pkts {
				// Wider-than-declared values exercise the header load masks.
				pkts[i] = Packet{"pkt.a": rng.Uint64() % 512, "pkt.b": rng.Uint64() % 70000, "pkt.c": rng.Uint64() % 20}
				if i%7 == 0 {
					delete(pkts[i], "pkt.b")
				}
			}
			for i, pkt := range pkts[:vmLanes] {
				a, err := vm.Process(pkt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := interp.Process(pkt)
				if err != nil {
					t.Fatal(err)
				}
				assertSameOutputs(t, i, a, b)
			}
			err := vm.Replay(pkts[vmLanes:], func(i int, v View) error {
				want, err := interp.Process(pkts[vmLanes+i])
				if err != nil {
					return err
				}
				assertSameOutputs(t, vmLanes+i, v.Map(), want)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameCounters(t, vm, interp)
		})
	}
}
