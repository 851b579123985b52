// Bytecode VM: the compiled execution engine. The lowering (lower.go)
// turns the whole placed schedule into a flat instruction stream over a
// dense slot frame, and the VM dispatches it through one switch — no
// call per operator, no call per statement. A few generic opcodes cover
// every expression and statement the language has (a binary operator
// or builtin over two slots, computed-index register loads, stores and
// read-modify-writes, forward guard jumps); superinstructions cover the
// complete statement and guard motifs the module library emits
// (hash→mod, register increment, two- and three-way adds, LT/EQ
// guards). Width masks, ALU charges, and register cell wrapping are
// precomputed at lower time, so the execution loop is straight-line
// integer code.
//
// The VM is held to bit-identical outputs, register contents, and Stats
// versus the reference interpreter (see lower.go for the contract).
// Lowered programs can never abort at runtime, which is what makes the
// batched struct-of-arrays mode in batch.go sound; programs the lowering
// rejects run on the interpreter wholesale (Pipeline.Fallback).

package sim

import "p4all/internal/lang"

// vmOp enumerates the VM's opcodes. Every opcode must be reachable from
// at least one program in the repository: the opcode-coverage test in
// vm_test.go fails on any opcode no in-repo program exercises (a dead
// lowering path).
type vmOp uint8

const (
	// opConstSlot stores a compile-time constant into a meta slot:
	// vals[dst] = imm (pre-masked). charge carries the folded subtree's
	// deferred ALU cost.
	opConstSlot vmOp = iota
	// opHashModSlot is the index-computation superinstruction:
	// vals[dst] = (hash(hdr(a) & mask, imm) % imm2) & dmask.
	opHashModSlot
	// opMovSlot copies one meta slot to another: vals[dst] = meta(a) & dmask.
	opMovSlot
	// opAdd2Slot adds two meta slots: vals[dst] = (meta(a) + meta(b)) & mask.
	opAdd2Slot
	// opAdd3Slot is the three-way fold superinstruction:
	// vals[dst] = (((meta(a) + meta(b)) & mask) + meta(c)) & mask2.
	opAdd3Slot
	// opRegBumpSlot is the register read-modify-write superinstruction:
	// cell = meta(a) wrapped at ncells; store[cell] = (store[cell] + imm) & mask.
	// Counts one read, one write, and one ALU op.
	opRegBumpSlot
	// opRegLoadSlot loads a register cell into a meta slot:
	// cell = meta(a) wrapped; vals[dst] = store[cell] & dmask. One read.
	opRegLoadSlot
	// opGuardLT evaluates the guard meta(a) < meta(b); on failure it
	// jumps to target (the end of the guarded step). One ALU op,
	// charged whether or not the guard passes, as in the interpreter.
	opGuardLT
	// opGuardEQImm evaluates the guard meta(a) == imm; on failure it
	// jumps to target.
	opGuardEQImm
	// opBinSlot is the generic binary operation:
	// vals[dst] = bin(kind, meta(a), meta(b)) & dmask, where kind is a
	// lang operator or a builtin pseudo-kind (see vmBin). Divisors are
	// always nonzero constants.
	opBinSlot
	// opRegStoreSlot stores a slot into a register cell:
	// cell = meta(a) wrapped; store[cell] = meta(b) & mask. One write.
	opRegStoreSlot
	// opRegAddSlot is the read-modify-write with a slot addend:
	// cell = meta(a) wrapped; store[cell] = (store[cell] + meta(b)) & mask.
	// One read, one write.
	opRegAddSlot

	vmOpCount // number of opcodes; keep last
)

var vmOpNames = [vmOpCount]string{
	opConstSlot:    "ConstSlot",
	opHashModSlot:  "HashModSlot",
	opMovSlot:      "MovSlot",
	opAdd2Slot:     "Add2Slot",
	opAdd3Slot:     "Add3Slot",
	opRegBumpSlot:  "RegBumpSlot",
	opRegLoadSlot:  "RegLoadSlot",
	opGuardLT:      "GuardLT",
	opGuardEQImm:   "GuardEQImm",
	opBinSlot:      "BinSlot",
	opRegStoreSlot: "RegStoreSlot",
	opRegAddSlot:   "RegAddSlot",
}

func (o vmOp) String() string {
	if int(o) < len(vmOpNames) {
		return vmOpNames[o]
	}
	return "vmOp(?)"
}

// vmInst is one decoded instruction. Operand slots index the frame's
// interned fields; masks and charges are precomputed by the lowering.
type vmInst struct {
	op     vmOp
	kind   lang.Kind // operator (opBinSlot)
	charge uint32    // ALU ops charged when this instruction executes
	ctr    int32     // frame ALU accumulator index (stage, or the dummy)
	a      int32     // first operand slot
	b      int32     // second operand slot
	c      int32     // third operand slot (opAdd3Slot)
	dst    int32     // destination slot
	target int32     // guard failure jump target (forward only)
	imm    uint64    // constant operand / hash seed / guard comparand / addend
	imm2   uint64    // modulus (opHashModSlot)
	mask   uint64    // operation wrap mask
	mask2  uint64    // outer wrap mask (opAdd3Slot)
	dmask  uint64    // destination field width mask
	store  []uint64
	ncells uint64 // len(store), hoisted
	regID  int32  // dense register-instance id; -1 when no register
	// uncond is true when this pc lies inside no guard's skip interval
	// (guard pc, target): every lane reaches it, so batch execution can
	// skip the per-lane pc bookkeeping entirely (see markUncond and
	// execVec in batch.go). Never set on a register write.
	uncond bool
}

// writesReg reports whether the instruction stores to a register: the
// cross-packet state batch hazard analysis serializes.
func (in *vmInst) writesReg() bool {
	return in.op == opRegBumpSlot || in.op == opRegStoreSlot || in.op == opRegAddSlot
}

// vmProg is a lowered program: the instruction stream plus the field
// interning tables and the batch execution segments derived from
// register hazard analysis (see batch.go).
type vmProg struct {
	p         *Pipeline
	fieldSlot map[string]slotRef
	// slotKeys maps slot index back to the flattened field key, in
	// interning order; output assembly walks it. Temporaries and
	// constant slots have an empty key and never reach an output.
	slotKeys []string
	consts   []vmPreload
	code     []vmInst
	segs     []vmSeg
	nreg     int // distinct register instances the program touches
}

// vmPreload is a constant operand slot, stamped live for every lane at
// the start of each batch.
type vmPreload struct {
	slot int32
	val  uint64
}

// vmLanes is the struct-of-arrays batch width: Replay runs up to this
// many packets per batch. Frame arrays are slot-major with this fixed
// stride so lane indexing is a shift, not a multiply by a variable.
const vmLanes = 64

// vmFrame is the reusable struct-of-arrays packet frame: slot s of lane
// l lives at index s*vmLanes+l. A slot is live for the current batch
// iff its stamp equals gen, so "clearing" the frame is one increment.
// Packet keys that are not interned header fields (unknown fields, or
// keys colliding with meta names, which the interpreter also keeps out
// of metadata) overflow into the per-lane extra key/value slices. Stats accumulate in frame-local counters
// (batch execution is instruction-major, so per-stage totals — which
// are order-free — are the only accounting that survives; flushStats
// folds them into Pipeline.stats after every run).
type vmFrame struct {
	vals  []uint64
	stamp []uint64
	gen   uint64
	lanes int
	// next[l] is lane l's program counter between batch segments; a
	// vector segment executes instruction pc for lane l iff next[l]==pc.
	next   [vmLanes]int32
	extraK [vmLanes][]string
	extraV [vmLanes][]uint64
	alu    []uint64 // per-stage ALU accumulators + trailing dummy
	reads  uint64
	writes uint64
}

// vmExtraCap is the per-lane room for stray packet fields reserved up
// front, so the first batches do not grow 64 lanes' lists one by one.
const vmExtraCap = 4

func newVMFrame(nslots, nstages int) vmFrame {
	fr := vmFrame{
		vals:  make([]uint64, nslots*vmLanes),
		stamp: make([]uint64, nslots*vmLanes),
		alu:   make([]uint64, nstages+1),
	}
	keys := make([]string, vmLanes*vmExtraCap)
	vals := make([]uint64, vmLanes*vmExtraCap)
	for l := 0; l < vmLanes; l++ {
		lo, hi := l*vmExtraCap, (l+1)*vmExtraCap
		fr.extraK[l], fr.extraV[l] = keys[lo:lo:hi], vals[lo:lo:hi]
	}
	return fr
}

// ld reads a meta/header slot for one lane: zero when the slot was not
// written this batch, the interpreter's absent-field semantics.
func (fr *vmFrame) ld(slot int32, lane int) uint64 {
	i := int(slot)*vmLanes + lane
	if fr.stamp[i] == fr.gen {
		return fr.vals[i]
	}
	return 0
}

// st writes a meta slot for one lane and marks it live.
func (fr *vmFrame) st(slot int32, lane int, v uint64) {
	i := int(slot)*vmLanes + lane
	fr.vals[i] = v
	fr.stamp[i] = fr.gen
}

// exec runs one lane from pc to end (lane-major execution: Process, and
// the serial segments of a batch). Guards jump forward only, so the
// returned pc is >= end; a target past end belongs to a later segment.
func (pl *vmProg) exec(fr *vmFrame, lane int, pc, end int32) int32 {
	code := pl.code
	for pc < end {
		in := &code[pc]
		fr.alu[in.ctr] += uint64(in.charge)
		switch in.op {
		case opConstSlot:
			fr.st(in.dst, lane, in.imm)
		case opHashModSlot:
			v := hashUint(fr.ld(in.a, lane)&in.mask, in.imm) % in.imm2
			fr.st(in.dst, lane, v&in.dmask)
		case opMovSlot:
			fr.st(in.dst, lane, fr.ld(in.a, lane)&in.dmask)
		case opAdd2Slot:
			fr.st(in.dst, lane, (fr.ld(in.a, lane)+fr.ld(in.b, lane))&in.mask)
		case opAdd3Slot:
			v := (fr.ld(in.a, lane) + fr.ld(in.b, lane)) & in.mask
			fr.st(in.dst, lane, (v+fr.ld(in.c, lane))&in.mask2)
		case opRegBumpSlot:
			cell := fr.ld(in.a, lane)
			if cell >= in.ncells {
				cell %= in.ncells
			}
			fr.reads++
			in.store[cell] = (in.store[cell] + in.imm) & in.mask
			fr.writes++
		case opRegLoadSlot:
			cell := fr.ld(in.a, lane)
			if cell >= in.ncells {
				cell %= in.ncells
			}
			fr.reads++
			fr.st(in.dst, lane, in.store[cell]&in.dmask)
		case opGuardLT:
			if fr.ld(in.a, lane) >= fr.ld(in.b, lane) {
				pc = in.target
				continue
			}
		case opGuardEQImm:
			if fr.ld(in.a, lane) != in.imm {
				pc = in.target
				continue
			}
		case opBinSlot:
			fr.st(in.dst, lane, vmBin(in.kind, fr.ld(in.a, lane), fr.ld(in.b, lane))&in.dmask)
		case opRegStoreSlot:
			cell := fr.ld(in.a, lane)
			if cell >= in.ncells {
				cell %= in.ncells
			}
			in.store[cell] = fr.ld(in.b, lane) & in.mask
			fr.writes++
		case opRegAddSlot:
			cell := fr.ld(in.a, lane)
			if cell >= in.ncells {
				cell %= in.ncells
			}
			fr.reads++
			in.store[cell] = (in.store[cell] + fr.ld(in.b, lane)) & in.mask
			fr.writes++
		}
		pc++
	}
	return pc
}

// run1 pushes a single packet through lane 0 (the Process path). A
// lowered program cannot abort, so there is no error return.
func (pl *vmProg) run1(fr *vmFrame, pkt Packet) {
	pl.p.stats.Packets++
	fr.gen++
	fr.lanes = 1
	pl.preload(fr)
	fr.extraK[0] = fr.extraK[0][:0]
	fr.extraV[0] = fr.extraV[0][:0]
	for k, v := range pkt {
		if sr, ok := pl.fieldSlot[k]; ok && sr.header {
			fr.st(int32(sr.slot), 0, v)
		} else {
			fr.extraK[0] = append(fr.extraK[0], k)
			fr.extraV[0] = append(fr.extraV[0], v)
		}
	}
	pl.exec(fr, 0, 0, int32(len(pl.code)))
	pl.flushStats(fr)
}

// preload stamps the constant slots live for the batch's lanes.
func (pl *vmProg) preload(fr *vmFrame) {
	for _, c := range pl.consts {
		vals := fr.vals[int(c.slot)*vmLanes:]
		stamp := fr.stamp[int(c.slot)*vmLanes:]
		for l := 0; l < fr.lanes; l++ {
			vals[l] = c.val
			stamp[l] = fr.gen
		}
	}
}

// vmBin evaluates an opBinSlot operator: a lang operator, or one of the
// builtin pseudo-kinds. Lowering admits only nonzero constant divisors,
// so binOp cannot fail here.
func vmBin(k lang.Kind, x, y uint64) uint64 {
	switch k {
	case kindHash:
		return hashUint(x, y)
	case kindMin:
		if x < y {
			return x
		}
		return y
	case kindMax:
		if x > y {
			return x
		}
		return y
	}
	v, _ := binOp(k, x, y)
	return v
}

// flushStats folds the frame-local accumulators into the pipeline's
// counters; the trailing dummy accumulator (out-of-range stages)
// mirrors the interpreter's bounds check and is discarded.
func (pl *vmProg) flushStats(fr *vmFrame) {
	stats := &pl.p.stats
	for i := range stats.ALUOps {
		stats.ALUOps[i] += fr.alu[i]
		fr.alu[i] = 0
	}
	fr.alu[len(stats.ALUOps)] = 0
	stats.RegReads += fr.reads
	stats.RegWrites += fr.writes
	fr.reads, fr.writes = 0, 0
}

// output materializes one lane as the map Process returns: live field
// slots in interning order, then overflow keys — except where a live
// meta slot shadows a same-named packet key, matching the interpreter's
// header-then-meta merge order.
func (pl *vmProg) output(fr *vmFrame, lane int) map[string]uint64 {
	out := make(map[string]uint64, len(pl.fieldSlot)+len(fr.extraK[lane]))
	for s, key := range pl.slotKeys {
		i := s*vmLanes + lane
		if key != "" && fr.stamp[i] == fr.gen {
			out[key] = fr.vals[i]
		}
	}
	for i, k := range fr.extraK[lane] {
		if sr, ok := pl.fieldSlot[k]; ok && fr.stamp[sr.slot*vmLanes+lane] == fr.gen {
			continue
		}
		out[k] = fr.extraV[lane][i]
	}
	return out
}
