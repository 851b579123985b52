// VM lowering: translates a pipeline's placed steps into the flat
// vmInst stream executed by vm.go.
//
// The contract, held by difftest's engine oracle: for every packet the
// VM's outputs, the register contents, and every Stats counter are
// bit-identical to the reference interpreter's. The interpreter charges
// one ALU op per evaluated operator, after operand evaluation, skipping
// the charge when && or || short-circuits; arithmetic wraps at the
// combined operand width. Constant subtrees fold at lower time and
// carry their deferred charge to the instruction that consumes them.
// Nothing observable can happen between two charges of one
// instruction, because a lowered program never aborts.
//
// Every expression lowers through one path (lowerExpr). Generic
// opcodes cover any operator or builtin (opBinSlot) and computed-index
// register access (opRegLoadSlot, opRegStoreSlot, opRegAddSlot); the
// module library's hot motifs come out as superinstructions where they
// match (hash→mod, two- and three-way adds, register increments, LT/EQ
// guards). Per-packet branches — step guards, if/else in action bodies,
// short-circuit operators — become forward guard jumps. Constant
// operands live in slots preloaded at the start of every batch.
//
// Two classes of program fall back to the interpreter wholesale
// (Pipeline.Fallback): programs that can abort at runtime (a divisor
// that is not a nonzero compile-time constant, a register instance
// with no cells) and non-constant elastic indexes (a field or register
// instance chosen by a runtime value).

package sim

import (
	"fmt"

	"p4all/internal/lang"
)

// slotRef locates an interned field: its frame slot and whether the
// field lives in a header struct (header slots are seeded from the
// incoming packet; meta slots start absent every packet).
type slotRef struct {
	slot   int
	header bool
}

// Builtin calls lower to opBinSlot under pseudo-kinds outside the
// lexer's range.
const (
	kindHash lang.Kind = -1 - iota
	kindMin
	kindMax
)

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// lowerVM compiles every placed step to bytecode, then derives the
// batch execution segments. Any construct outside the fallback-free
// subset aborts the whole lowering; the caller keeps the interpreter.
func lowerVM(p *Pipeline) (*vmProg, error) {
	pr := &vmProg{p: p, fieldSlot: make(map[string]slotRef)}
	lo := &vmLowerer{p: p, pr: pr, regIDs: make(map[string]int32), consts: make(map[uint64]int32)}
	for _, st := range p.steps {
		if err := lo.lowerStep(st); err != nil {
			return nil, err
		}
	}
	pr.nreg = len(lo.regIDs)
	markUncond(pr)
	pr.segs = segmentize(pr)
	return pr, nil
}

// markUncond flags every instruction that no guard can skip. A lane
// can only be "waiting" at pc (its per-lane program counter parked on a
// forward jump target T > pc) when pc lies strictly inside some guard's
// interval (guard pc, T) — so an instruction inside no such interval is
// executed by every lane of every batch, and the vector executor can
// drop the per-lane pc check/store and hoist its ALU charge (batch.go).
// Intervals are computed over the whole program, not per segment: a
// guard inside a serial segment can target past a later vector
// segment's start, and those skipped instructions must stay
// conditional. Register writes are excluded defensively: hazard
// analysis already keeps them out of vector segments, where the flag is
// read.
func markUncond(pr *vmProg) {
	cond := make([]bool, len(pr.code))
	for i := range pr.code {
		switch pr.code[i].op {
		case opGuardLT, opGuardEQImm:
			for p := i + 1; p < int(pr.code[i].target); p++ {
				cond[p] = true
			}
		}
	}
	for i := range pr.code {
		pr.code[i].uncond = !cond[i] && !pr.code[i].writesReg()
	}
}

type vmLowerer struct {
	p      *Pipeline
	pr     *vmProg
	regIDs map[string]int32 // "name@inst" -> dense register-instance id
	consts map[uint64]int32 // constant value -> preloaded slot
}

func (lo *vmLowerer) newSlot(key string) int32 {
	lo.pr.slotKeys = append(lo.pr.slotKeys, key)
	return int32(len(lo.pr.slotKeys) - 1)
}

// slotFor interns a field key.
func (lo *vmLowerer) slotFor(key string, header bool) int32 {
	if sr, ok := lo.pr.fieldSlot[key]; ok {
		return int32(sr.slot)
	}
	slot := lo.newSlot(key)
	lo.pr.fieldSlot[key] = slotRef{slot: int(slot), header: header}
	return slot
}

// temp allocates a hidden slot for an intermediate value.
func (lo *vmLowerer) temp() int32 { return lo.newSlot("") }

// constant returns the preloaded slot holding v.
func (lo *vmLowerer) constant(v uint64) int32 {
	if s, ok := lo.consts[v]; ok {
		return s
	}
	s := lo.temp()
	lo.consts[v] = s
	lo.pr.consts = append(lo.pr.consts, vmPreload{slot: s, val: v})
	return s
}

func (lo *vmLowerer) regIDFor(name string, inst int) int32 {
	key := instKey(name, uint64(inst))
	if id, ok := lo.regIDs[key]; ok {
		return id
	}
	id := int32(len(lo.regIDs))
	lo.regIDs[key] = id
	return id
}

// vmStepCtx pins one action instance's iteration index and stage
// counter while its guards and body lower.
type vmStepCtx struct {
	lo      *vmLowerer
	action  *lang.Action
	iter    int
	loopVar string
	ctr     int32 // ALU accumulator index: the stage, or the dummy
}

func (lo *vmLowerer) lowerStep(st step) error {
	loopVar := ""
	if l := st.inv.Loop(); l != nil {
		loopVar = l.Var
	}
	ctr := int32(len(lo.p.stats.ALUOps)) // dummy accumulator
	if st.stage >= 0 && st.stage < len(lo.p.stats.ALUOps) {
		ctr = int32(st.stage)
	}
	ctx := &vmStepCtx{lo: lo, action: st.inv.Action, iter: st.iter, loopVar: loopVar, ctr: ctr}
	var guards []int
	for _, g := range st.inv.Guards {
		gi, err := ctx.lowerGuard(g)
		if err != nil {
			return err
		}
		guards = append(guards, gi)
	}
	if err := ctx.lowerBlock(st.inv.Action.Decl.Body); err != nil {
		return err
	}
	// A failing guard skips the rest of the step.
	ctx.patch(guards...)
	return nil
}

// emit appends an instruction, stamping the step's ALU counter, and
// returns its index for jump patching.
func (ctx *vmStepCtx) emit(in vmInst) int {
	in.ctr = ctx.ctr
	if in.store == nil {
		in.regID = -1
	}
	ctx.lo.pr.code = append(ctx.lo.pr.code, in)
	return len(ctx.lo.pr.code) - 1
}

// patch points guard jumps at the next instruction to be emitted
// (forward only).
func (ctx *vmStepCtx) patch(jumps ...int) {
	end := int32(len(ctx.lo.pr.code))
	for _, j := range jumps {
		ctx.lo.pr.code[j].target = end
	}
}

// charge emits a charge-only instruction, for evaluation work whose
// result is discarded (a write to a register instance the layout did
// not materialize, a charged elastic index on a store).
func (ctx *vmStepCtx) charge(n int) {
	if n > 0 {
		ctx.emit(vmInst{op: opConstSlot, dst: ctx.lo.temp(), charge: uint32(n)})
	}
}

// out is the slot an instruction writes: the caller's destination, or a
// fresh temporary when there is none (dst < 0).
func (ctx *vmStepCtx) out(dst int32) int32 {
	if dst < 0 {
		return ctx.lo.temp()
	}
	return dst
}

// --- constant evaluation --------------------------------------------------

// vmConst is a compile-time constant plus the ALU ops the interpreter
// would charge evaluating the folded subtree; the charge is realized on
// whichever instruction consumes the constant, keeping Stats
// bit-identical.
type vmConst struct {
	val   uint64
	width int
	cost  int
}

// resultWidth is the width tag of an operator's result, and whether the
// interpreter wraps the value to it: arithmetic wraps at the combined
// operand width, min/max pass an operand through unchanged, hash yields
// a full word, and comparisons and connectives yield 0/1.
func resultWidth(k lang.Kind, wx, wy int) (w int, wrap bool) {
	switch k {
	case lang.PLUS, lang.MINUS, lang.STAR, lang.SLASH, lang.PCT:
		return combineWidth(wx, wy), true
	case kindMin, kindMax:
		return combineWidth(wx, wy), false
	case kindHash:
		return 64, false
	}
	return 0, false
}

func builtinKind(name string) (lang.Kind, error) {
	switch name {
	case "hash":
		return kindHash, nil
	case "min":
		return kindMin, nil
	case "max":
		return kindMax, nil
	}
	return 0, fmt.Errorf("vm: unknown builtin %s", name)
}

// constExpr evaluates a compile-time-constant expression: literals,
// iteration/loop variables, symbolic parameters, named constants, and
// operators and builtins over them. A deciding left operand of && or ||
// folds without the right one, as the interpreter never evaluates it.
func (ctx *vmStepCtx) constExpr(e lang.Expr) (vmConst, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return vmConst{val: uint64(e.Value)}, nil
	case *lang.BoolLit:
		return vmConst{val: b2u(e.Value)}, nil
	case *lang.Ref:
		if !e.IsSimpleIdent() {
			return vmConst{}, fmt.Errorf("vm: non-constant reference %s", lang.PrintExpr(e))
		}
		u := ctx.lo.p.unit
		base := e.Base()
		if ctx.action.Decl != nil && base == ctx.action.Decl.IndexParam {
			return vmConst{val: uint64(ctx.iter)}, nil
		}
		if ctx.loopVar != "" && base == ctx.loopVar {
			return vmConst{val: uint64(ctx.iter)}, nil
		}
		if sym := u.SymbolicByName(base); sym != nil {
			return vmConst{val: uint64(ctx.lo.p.layout.Symbolics[sym.Name])}, nil
		}
		if v, ok := u.Consts[base]; ok {
			return vmConst{val: uint64(v)}, nil
		}
		return vmConst{}, fmt.Errorf("vm: unknown name %s", base)
	case *lang.Unary:
		x, err := ctx.constExpr(e.X)
		if err != nil {
			return vmConst{}, err
		}
		switch e.Op {
		case lang.MINUS:
			return vmConst{val: -x.val & widthMask(x.width), width: x.width, cost: x.cost + 1}, nil
		case lang.NOT:
			return vmConst{val: b2u(x.val == 0), cost: x.cost + 1}, nil
		}
		return vmConst{}, fmt.Errorf("vm: unsupported unary %s", e.Op)
	case *lang.Binary:
		x, err := ctx.constExpr(e.X)
		if err != nil {
			return vmConst{}, err
		}
		if (e.Op == lang.AND && x.val == 0) || (e.Op == lang.OR && x.val != 0) {
			return vmConst{val: b2u(e.Op == lang.OR), cost: x.cost}, nil
		}
		y, err := ctx.constExpr(e.Y)
		if err != nil {
			return vmConst{}, err
		}
		v, err := binOp(e.Op, x.val, y.val)
		if err != nil {
			// A constant zero divisor aborts every packet: the
			// interpreter keeps reporting it.
			return vmConst{}, fmt.Errorf("vm: constant fold: %w", err)
		}
		return foldConst(e.Op, v, x, y), nil
	case *lang.CallExpr:
		k, err := builtinKind(e.Name)
		if err != nil {
			return vmConst{}, err
		}
		if len(e.Args) != 2 {
			return vmConst{}, fmt.Errorf("vm: builtin %s with %d args", e.Name, len(e.Args))
		}
		x, err := ctx.constExpr(e.Args[0])
		if err != nil {
			return vmConst{}, err
		}
		y, err := ctx.constExpr(e.Args[1])
		if err != nil {
			return vmConst{}, err
		}
		return foldConst(k, vmBin(k, x.val, y.val), x, y), nil
	}
	return vmConst{}, fmt.Errorf("vm: non-constant expression %T", e)
}

func foldConst(k lang.Kind, v uint64, x, y vmConst) vmConst {
	w, wrap := resultWidth(k, x.width, y.width)
	if wrap {
		v &= widthMask(w)
	}
	return vmConst{val: v, width: w, cost: x.cost + y.cost + 1}
}

// --- expressions ----------------------------------------------------------

// vmVal is a lowered expression: the slot holding its value (a field, a
// temporary, or a preloaded constant), its width tag, and the deferred
// charge the consuming instruction realizes.
type vmVal struct {
	slot  int32
	width int
	cost  int
}

// vmField is a resolved struct-field reference.
type vmField struct {
	slot   int32
	width  int
	cost   int // deferred charge of a constant elastic index
	header bool
}

// loadMask is the mask a load applies: header fields wrap at their
// declared width (a packet may carry a wider value); meta slots only
// ever hold store-masked values.
func (f vmField) loadMask() uint64 {
	if f.header {
		return widthMask(f.width)
	}
	return ^uint64(0)
}

// field resolves a struct-field reference to its interned slot. An
// elastic field's instance index must be a compile-time constant.
func (ctx *vmStepCtx) field(ref *lang.Ref) (vmField, error) {
	si := ctx.lo.p.unit.StructByName(ref.Base())
	if si == nil || len(ref.Segs) != 2 {
		return vmField{}, fmt.Errorf("vm: not a struct field: %s", lang.PrintExpr(ref))
	}
	f := si.Field(ref.Segs[1].Name)
	if f == nil {
		return vmField{}, fmt.Errorf("vm: unknown field %s", lang.PrintExpr(ref))
	}
	key, cost := f.Qual(), 0
	if f.Count.IsSymbolic() || f.Count.Const > 1 {
		fseg := ref.Segs[1]
		if len(fseg.Indexes) != 1 {
			return vmField{}, fmt.Errorf("vm: elastic field %s needs one index", key)
		}
		ie, err := ctx.constExpr(fseg.Indexes[0])
		if err != nil {
			return vmField{}, fmt.Errorf("vm: elastic field %s index is not a compile-time constant: %w", key, err)
		}
		key, cost = instKey(key, ie.val), ie.cost
	}
	return vmField{slot: ctx.lo.slotFor(key, si.IsHeader), width: f.Width, cost: cost, header: si.IsHeader}, nil
}

// value lowers an expression to a slot without a destination.
func (ctx *vmStepCtx) value(e lang.Expr) (vmVal, error) {
	return ctx.lowerExpr(e, -1, ^uint64(0))
}

// lowerExpr lowers an expression. With a destination (dst >= 0) the
// value lands there masked by dmask, and every charge is realized;
// without one (dst < 0, dmask all ones) fields and constants are used
// in place and only operators emit code. The destination is written by
// the last instruction only, after every operand has been read.
func (ctx *vmStepCtx) lowerExpr(e lang.Expr, dst int32, dmask uint64) (vmVal, error) {
	if c, err := ctx.constExpr(e); err == nil {
		if dst < 0 {
			return vmVal{slot: ctx.lo.constant(c.val), width: c.width, cost: c.cost}, nil
		}
		ctx.emit(vmInst{op: opConstSlot, dst: dst, imm: c.val & dmask, charge: uint32(c.cost)})
		return vmVal{slot: dst, width: c.width}, nil
	}
	switch e := e.(type) {
	case *lang.Ref:
		if reg := ctx.lo.p.unit.RegisterByName(e.Base()); reg != nil {
			return ctx.lowerRegLoad(e, reg, dst, dmask)
		}
		f, err := ctx.field(e)
		if err != nil {
			return vmVal{}, err
		}
		if dst < 0 && f.loadMask() == ^uint64(0) {
			return vmVal{slot: f.slot, width: f.width, cost: f.cost}, nil
		}
		// A narrow header operand is copied out masked, deferring the
		// index charge; a destination gets a masked move realizing it.
		v := vmVal{slot: ctx.out(dst), width: f.width}
		if dst < 0 {
			v.cost = f.cost
		}
		ctx.emit(vmInst{op: opMovSlot, a: f.slot, dst: v.slot, dmask: f.loadMask() & dmask, charge: uint32(f.cost - v.cost)})
		return v, nil
	case *lang.Unary:
		x, err := ctx.value(e.X)
		if err != nil {
			return vmVal{}, err
		}
		zero := vmVal{slot: ctx.lo.constant(0)}
		switch e.Op {
		case lang.MINUS:
			return ctx.emitBin(lang.MINUS, zero, x, dst, dmask), nil
		case lang.NOT:
			return ctx.emitBin(lang.EQ, x, zero, dst, dmask), nil
		}
		return vmVal{}, fmt.Errorf("vm: unsupported unary %s", e.Op)
	case *lang.Binary:
		switch e.Op {
		case lang.AND, lang.OR:
			return ctx.lowerLogic(e, dst, dmask)
		case lang.PLUS:
			return ctx.lowerAdd(e, dst, dmask)
		case lang.SLASH, lang.PCT:
			if d, err := ctx.constExpr(e.Y); err != nil || d.val == 0 {
				return vmVal{}, fmt.Errorf("vm: divisor %s is not a nonzero constant", lang.PrintExpr(e.Y))
			}
			if e.Op == lang.PCT {
				if v, ok, err := ctx.lowerHashMod(e, dst, dmask); ok || err != nil {
					return v, err
				}
			}
		}
		x, err := ctx.value(e.X)
		if err != nil {
			return vmVal{}, err
		}
		y, err := ctx.value(e.Y)
		if err != nil {
			return vmVal{}, err
		}
		return ctx.emitBin(e.Op, x, y, dst, dmask), nil
	case *lang.CallExpr:
		k, err := builtinKind(e.Name)
		if err != nil {
			return vmVal{}, err
		}
		if len(e.Args) != 2 {
			return vmVal{}, fmt.Errorf("vm: builtin %s with %d args", e.Name, len(e.Args))
		}
		x, err := ctx.value(e.Args[0])
		if err != nil {
			return vmVal{}, err
		}
		y, err := ctx.value(e.Args[1])
		if err != nil {
			return vmVal{}, err
		}
		return ctx.emitBin(k, x, y, dst, dmask), nil
	}
	return vmVal{}, fmt.Errorf("vm: unsupported expression %T", e)
}

// emitBin emits the generic binary operation, charging the operator and
// both operands' deferred costs.
func (ctx *vmStepCtx) emitBin(k lang.Kind, x, y vmVal, dst int32, dmask uint64) vmVal {
	w, wrap := resultWidth(k, x.width, y.width)
	if wrap {
		dmask &= widthMask(w)
	}
	out := ctx.out(dst)
	ctx.emit(vmInst{op: opBinSlot, kind: k, a: x.slot, b: y.slot, dst: out, dmask: dmask, charge: uint32(1 + x.cost + y.cost)})
	return vmVal{slot: out, width: w}
}

// lowerAdd selects the add superinstructions: a left-nested a+b+c is
// one opAdd3Slot, any other sum an opAdd2Slot.
func (ctx *vmStepCtx) lowerAdd(e *lang.Binary, dst int32, dmask uint64) (vmVal, error) {
	terms := []lang.Expr{e.X, e.Y}
	if in, ok := e.X.(*lang.Binary); ok && in.Op == lang.PLUS {
		terms = []lang.Expr{in.X, in.Y, e.Y}
	}
	vals := make([]vmVal, len(terms))
	cost := len(terms) - 1
	for i, t := range terms {
		v, err := ctx.value(t)
		if err != nil {
			return vmVal{}, err
		}
		vals[i] = v
		cost += v.cost
	}
	out := ctx.out(dst)
	w := combineWidth(vals[0].width, vals[1].width)
	if len(terms) == 2 {
		ctx.emit(vmInst{op: opAdd2Slot, a: vals[0].slot, b: vals[1].slot, dst: out, mask: widthMask(w) & dmask, charge: uint32(cost)})
		return vmVal{slot: out, width: w}, nil
	}
	outerW := combineWidth(w, vals[2].width)
	ctx.emit(vmInst{
		op: opAdd3Slot, a: vals[0].slot, b: vals[1].slot, c: vals[2].slot, dst: out,
		mask: widthMask(w), mask2: widthMask(outerW) & dmask, charge: uint32(cost),
	})
	return vmVal{slot: out, width: outerW}, nil
}

// lowerHashMod selects the index-computation superinstruction
// "hash(key, seed) % modulus" for a constant seed and (nonzero, checked
// by the caller) modulus. A header key is read through its load mask in
// place. hash yields width 64, so the modulo's combined-width wrap is
// the identity.
func (ctx *vmStepCtx) lowerHashMod(e *lang.Binary, dst int32, dmask uint64) (vmVal, bool, error) {
	call, ok := e.X.(*lang.CallExpr)
	if !ok || call.Name != "hash" || len(call.Args) != 2 {
		return vmVal{}, false, nil
	}
	seed, err := ctx.constExpr(call.Args[1])
	if err != nil {
		return vmVal{}, false, nil
	}
	div, _ := ctx.constExpr(e.Y)
	var key vmVal
	mask := ^uint64(0)
	if ref, ok := call.Args[0].(*lang.Ref); ok && ctx.lo.p.unit.StructByName(ref.Base()) != nil {
		f, err := ctx.field(ref)
		if err != nil {
			return vmVal{}, true, err
		}
		key, mask = vmVal{slot: f.slot, cost: f.cost}, f.loadMask()
	} else if key, err = ctx.value(call.Args[0]); err != nil {
		return vmVal{}, true, err
	}
	out := ctx.out(dst)
	ctx.emit(vmInst{
		op: opHashModSlot, a: key.slot, dst: out,
		mask: mask, imm: seed.val, imm2: div.val, dmask: dmask,
		charge: uint32(key.cost + seed.cost + 1 + div.cost + 1),
	})
	return vmVal{slot: out, width: 64}, true, nil
}

// lowerLogic lowers && and || with the interpreter's short-circuit
// contract: a deciding left operand skips the right operand and the
// operator's charge, so the right side sits behind a guard jump. The
// result is built in a temporary, so a destination the right operand
// reads is not clobbered early.
func (ctx *vmStepCtx) lowerLogic(e *lang.Binary, dst int32, dmask uint64) (vmVal, error) {
	x, err := ctx.value(e.X)
	if err != nil {
		return vmVal{}, err
	}
	and := e.Op == lang.AND
	t := ctx.lo.temp()
	ctx.emit(vmInst{op: opConstSlot, dst: t, imm: b2u(!and), charge: uint32(x.cost)})
	// GuardEQImm falls through only when its slot equals imm: && goes
	// on when x is not false, || when x is zero.
	decide := x.slot
	if and {
		decide = ctx.falsity(x)
	}
	skip := ctx.emit(vmInst{op: opGuardEQImm, a: decide})
	y, err := ctx.value(e.Y)
	if err != nil {
		return vmVal{}, err
	}
	ctx.emitBin(lang.NE, y, vmVal{slot: ctx.lo.constant(0)}, t, ^uint64(0))
	ctx.patch(skip)
	if dst < 0 {
		return vmVal{slot: t}, nil
	}
	ctx.emit(vmInst{op: opMovSlot, a: t, dst: dst, dmask: dmask})
	return vmVal{slot: dst}, nil
}

// falsity emits the uncharged test "v == 0" into a temporary, for guard
// jumps that must fire on a false value.
func (ctx *vmStepCtx) falsity(v vmVal) int32 {
	t := ctx.lo.temp()
	ctx.emit(vmInst{op: opBinSlot, kind: lang.EQ, a: v.slot, b: ctx.lo.constant(0), dst: t, dmask: ^uint64(0)})
	return t
}

// --- registers ------------------------------------------------------------

// vmReg is a resolved register access: the backing store (nil when the
// instance is not materialized in this layout — the interpreter then
// reads zero and drops writes, counting neither), its dense id, the
// slot holding the runtime cell index, and the deferred charge of both
// indexes.
type vmReg struct {
	store []uint64
	id    int32
	cell  int32
	cost  int
}

func (ctx *vmStepCtx) regRef(ref *lang.Ref, reg *lang.Register) (vmReg, error) {
	seg := ref.Segs[0]
	var instE, cellE lang.Expr
	switch {
	case reg.Decl.Count != nil && len(seg.Indexes) == 2:
		instE, cellE = seg.Indexes[0], seg.Indexes[1]
	case len(seg.Indexes) == 1:
		cellE = seg.Indexes[0]
	default:
		return vmReg{}, fmt.Errorf("vm: malformed register access %s", lang.PrintExpr(ref))
	}
	var inst vmConst
	if instE != nil {
		var err error
		if inst, err = ctx.constExpr(instE); err != nil {
			return vmReg{}, fmt.Errorf("vm: register %s instance index is not a compile-time constant: %w", reg.Name, err)
		}
	}
	cell, err := ctx.value(cellE)
	if err != nil {
		return vmReg{}, err
	}
	r := vmReg{cell: cell.slot, cost: inst.cost + cell.cost}
	store, ok := ctx.lo.p.Register(reg.Name, int(inst.val))
	if !ok {
		return r, nil
	}
	if len(store) == 0 {
		return vmReg{}, fmt.Errorf("vm: register %s/%d has no cells", reg.Name, inst.val)
	}
	r.store, r.id = store, ctx.lo.regIDFor(reg.Name, int(inst.val))
	return r, nil
}

func (ctx *vmStepCtx) lowerRegLoad(ref *lang.Ref, reg *lang.Register, dst int32, dmask uint64) (vmVal, error) {
	r, err := ctx.regRef(ref, reg)
	if err != nil {
		return vmVal{}, err
	}
	if r.store == nil {
		if dst < 0 {
			return vmVal{slot: ctx.lo.constant(0), width: reg.Width, cost: r.cost}, nil
		}
		ctx.emit(vmInst{op: opConstSlot, dst: dst, charge: uint32(r.cost)})
		return vmVal{slot: dst, width: reg.Width}, nil
	}
	out := ctx.out(dst)
	ctx.emit(vmInst{
		op: opRegLoadSlot, a: r.cell, dst: out, dmask: dmask,
		store: r.store, ncells: uint64(len(r.store)), regID: r.id, charge: uint32(r.cost),
	})
	return vmVal{slot: out, width: reg.Width}, nil
}

func (ctx *vmStepCtx) lowerRegStore(s *lang.AssignStmt, reg *lang.Register) error {
	if ok, err := ctx.lowerRegRMW(s, reg); ok || err != nil {
		return err
	}
	v, err := ctx.value(s.RHS)
	if err != nil {
		return err
	}
	r, err := ctx.regRef(s.LHS, reg)
	if err != nil {
		return err
	}
	if r.store == nil {
		ctx.charge(v.cost + r.cost)
		return nil
	}
	ctx.emit(vmInst{
		op: opRegStoreSlot, a: r.cell, b: v.slot, mask: widthMask(reg.Width),
		store: r.store, ncells: uint64(len(r.store)), regID: r.id, charge: uint32(v.cost + r.cost),
	})
	return nil
}

// lowerRegRMW selects the read-modify-write superinstructions for
// "reg[i][cell] = reg[i][cell] + addend" — the same reference on both
// sides, compared syntactically — when the cell index is a field, so one
// runtime read of it serves both of the interpreter's evaluations (whose
// charges it counts twice). A constant addend is an opRegBumpSlot, any
// other an opRegAddSlot.
func (ctx *vmStepCtx) lowerRegRMW(s *lang.AssignStmt, reg *lang.Register) (bool, error) {
	rb, ok := s.RHS.(*lang.Binary)
	if !ok || rb.Op != lang.PLUS {
		return false, nil
	}
	if x, ok := rb.X.(*lang.Ref); !ok || lang.PrintExpr(x) != lang.PrintExpr(s.LHS) {
		return false, nil
	}
	idx := s.LHS.Segs[0].Indexes
	if len(idx) == 0 {
		return false, nil
	}
	if cell, ok := idx[len(idx)-1].(*lang.Ref); !ok || ctx.lo.p.unit.StructByName(cell.Base()) == nil {
		return false, nil
	}
	in := vmInst{op: opRegBumpSlot}
	var add vmVal
	if c, err := ctx.constExpr(rb.Y); err == nil {
		in.imm, add = c.val, vmVal{width: c.width, cost: c.cost}
	} else if add, err = ctx.value(rb.Y); err != nil {
		return true, err
	} else {
		in.op, in.b = opRegAddSlot, add.slot
	}
	r, err := ctx.regRef(s.LHS, reg)
	if err != nil {
		return true, err
	}
	charge := 1 + add.cost + 2*r.cost
	if r.store == nil {
		ctx.charge(charge)
		return true, nil
	}
	// The add wraps at the combined operand width, the store at the
	// register width; the two masks compose into one.
	in.a, in.charge = r.cell, uint32(charge)
	in.mask = widthMask(combineWidth(reg.Width, add.width)) & widthMask(reg.Width)
	in.store, in.ncells, in.regID = r.store, uint64(len(r.store)), r.id
	ctx.emit(in)
	return true, nil
}

// --- statements -----------------------------------------------------------

func (ctx *vmStepCtx) lowerBlock(b *lang.Block) error {
	for _, s := range b.Stmts {
		if err := ctx.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ctx *vmStepCtx) lowerStmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return ctx.lowerBlock(s)
	case *lang.AssignStmt:
		return ctx.lowerAssign(s)
	case *lang.IfStmt:
		return ctx.lowerIf(s)
	}
	return fmt.Errorf("vm: unsupported statement %T in action %s", s, ctx.action.Name)
}

func (ctx *vmStepCtx) lowerAssign(s *lang.AssignStmt) error {
	if reg := ctx.lo.p.unit.RegisterByName(s.LHS.Base()); reg != nil {
		return ctx.lowerRegStore(s, reg)
	}
	f, err := ctx.field(s.LHS)
	if err != nil {
		return err
	}
	if _, err := ctx.lowerExpr(s.RHS, f.slot, widthMask(f.width)); err != nil {
		return err
	}
	ctx.charge(f.cost)
	return nil
}

// lowerIf lowers an if/else in an action body to guard jumps keyed on
// one uncharged "condition is false" slot: the first jumps over the
// then-block when it is set, the second ends the then-block by jumping
// over the else-block.
func (ctx *vmStepCtx) lowerIf(s *lang.IfStmt) error {
	c, err := ctx.value(s.Cond)
	if err != nil {
		return err
	}
	isFalse := ctx.falsity(c)
	skipThen := ctx.emit(vmInst{op: opGuardEQImm, a: isFalse, charge: uint32(c.cost)})
	if err := ctx.lowerBlock(s.Then); err != nil {
		return err
	}
	if s.Else == nil {
		ctx.patch(skipThen)
		return nil
	}
	skipElse := ctx.emit(vmInst{op: opGuardEQImm, a: isFalse, imm: 1})
	ctx.patch(skipThen)
	if err := ctx.lowerBlock(s.Else); err != nil {
		return err
	}
	ctx.patch(skipElse)
	return nil
}

// lowerGuard emits a conditional forward jump for a step guard, patched
// to the step end by lowerStep. The comparison's ALU op is charged
// whether or not the guard passes (the interpreter charges after
// operand evaluation, before acting on the result).
func (ctx *vmStepCtx) lowerGuard(g lang.Expr) (int, error) {
	if b, ok := g.(*lang.Binary); ok {
		switch b.Op {
		case lang.LT:
			x, err := ctx.value(b.X)
			if err != nil {
				return 0, err
			}
			y, err := ctx.value(b.Y)
			if err != nil {
				return 0, err
			}
			return ctx.emit(vmInst{op: opGuardLT, a: x.slot, b: y.slot, charge: uint32(1 + x.cost + y.cost)}), nil
		case lang.EQ:
			if y, err := ctx.constExpr(b.Y); err == nil {
				x, err := ctx.value(b.X)
				if err != nil {
					return 0, err
				}
				return ctx.emit(vmInst{op: opGuardEQImm, a: x.slot, imm: y.val, charge: uint32(1 + x.cost + y.cost)}), nil
			}
		}
	}
	c, err := ctx.value(g)
	if err != nil {
		return 0, err
	}
	return ctx.emit(vmInst{op: opGuardEQImm, a: ctx.falsity(c), charge: uint32(c.cost)}), nil
}
