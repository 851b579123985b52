package tv

import (
	"fmt"
	"testing"

	"p4all/internal/lang"
)

// TestInternOrderIndependent: a structurally equal node interns to the
// same node however its subterms were built, and a repeat lookup hands
// out no new id.
func TestInternOrderIndependent(t *testing.T) {
	tab := newSymtab()
	build := func(keyFirst bool) *node {
		var k, v *node
		if keyFirst {
			k = tab.in("pkt.key")
			v = tab.in("pkt.val")
		} else {
			v = tab.in("pkt.val")
			k = tab.in("pkt.key")
		}
		cell := tab.wrapCell(tab.call("hash", k, tab.constant(1)), 1024)
		sum := tab.mask(tab.bin(lang.PLUS, tab.sel(tab.arrInit("r", 0), cell, 32), v), 32)
		return tab.store(tab.arrInit("r", 0), cell, sum)
	}
	a := build(true)
	seq := tab.seq
	b := build(false)
	if a != b {
		t.Fatalf("equal stores interned apart: %s vs %s", nodeString(a, 8), nodeString(b, 8))
	}
	if tab.seq != seq {
		t.Errorf("rebuilding an interned term handed out %d new ids", tab.seq-seq)
	}
	x, y := tab.in("x"), tab.in("y")
	if tab.bin(lang.PLUS, x, y) != tab.intern(kBin, lang.PLUS, "", 0, 0, x, y) {
		t.Error("bin and intern disagree on the same node")
	}
	if tab.bin(lang.PLUS, x, y) == tab.bin(lang.PLUS, y, x) {
		t.Error("operand order is part of a node's identity")
	}
}

// TestInternLongArgLists: argument lists past the three inline ids
// intern by every argument.
func TestInternLongArgLists(t *testing.T) {
	tab := newSymtab()
	var in []*node
	for i := 0; i < 6; i++ {
		in = append(in, tab.in(fmt.Sprintf("pkt.f%d", i)))
	}
	call := func(args ...*node) *node {
		return tab.intern(kCall, 0, "f", 0, 0, args...)
	}
	four := call(in[0], in[1], in[2], in[3])
	if call(in[0], in[1], in[2], in[3]) != four {
		t.Error("equal four-argument calls interned apart")
	}
	if call(in[0], in[1], in[2], in[4]) == four {
		t.Error("calls differing in the fourth argument interned together")
	}
	if call(in[0], in[1], in[2]) == four {
		t.Error("a three-argument prefix interned with the four-argument call")
	}
	five := call(in[0], in[1], in[2], in[3], in[4])
	if five == four || call(in[0], in[1], in[2], in[3], in[4]) != five {
		t.Error("five-argument calls intern wrongly")
	}
	if call(in[0], in[1], in[2], in[3], in[5]) == five {
		t.Error("calls differing in the fifth argument interned together")
	}
	if len(five.args) != 5 || five.args[4] != in[4] {
		t.Errorf("five-argument call kept %d arguments", len(five.args))
	}
}

// TestConstantCache: the constant cache serves exactly the node intern
// returns, whichever of the two sees the value first.
func TestConstantCache(t *testing.T) {
	tab := newSymtab()
	c := tab.constant(42)
	if got := tab.intern(kConst, 0, "", 42, 0); got != c {
		t.Error("intern after constant: different node")
	}
	n := tab.intern(kConst, 0, "", 7, 0)
	if got := tab.constant(7); got != n {
		t.Error("constant after intern: different node")
	}
	if tab.constant(42) != c || tab.boolConst(true) != tab.constant(1) {
		t.Error("repeated constant lookups disagree")
	}
	if c.lo != 42 || c.hi != 42 {
		t.Errorf("constant interval [%d, %d], want [42, 42]", c.lo, c.hi)
	}
}

// TestInternNoNameCollision: a key formatted as kind|op|name|val|width
// followed by |id per argument gave the name "a|5" with value 0 and no
// arguments the same key as the name "a" with value 5 and one argument
// of id 0, so the second node was answered with the first. The
// structural key keeps them apart.
func TestInternNoNameCollision(t *testing.T) {
	oldKey := func(n *node) string {
		k := fmt.Sprintf("%d|%d|%s|%d|%d", n.kind, n.op, n.name, n.val, n.width)
		for _, a := range n.args {
			k += fmt.Sprintf("|%d", a.id)
		}
		return k
	}
	tab := newSymtab()
	zero := tab.constant(0)
	if zero.id != 0 {
		t.Fatalf("first node has id %d, want 0", zero.id)
	}
	a := &node{kind: kCall, name: "a|5"}
	b := &node{kind: kCall, name: "a", val: 5, args: []*node{zero}}
	if oldKey(a) != oldKey(b) {
		t.Fatalf("test premise: formatted keys %q and %q differ", oldKey(a), oldKey(b))
	}
	na := tab.intern(a.kind, a.op, a.name, a.val, a.width, a.args...)
	nb := tab.intern(b.kind, b.op, b.name, b.val, b.width, b.args...)
	if na == nb {
		t.Fatal("nodes with different names and arities interned together")
	}
	if na.name != "a|5" || nb.name != "a" || nb.val != 5 || len(nb.args) != 1 {
		t.Errorf("interned %s and %s", nodeString(na, 2), nodeString(nb, 2))
	}
}
