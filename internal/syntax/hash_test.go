package syntax_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// twoMethodProgram builds
//
//	void f() { async skip }
//	void main() { <main body variant> }
//
// where variant selects one of two different main bodies — f is
// byte-identical across variants.
func twoMethodProgram(t *testing.T, variant int) *syntax.Program {
	t.Helper()
	b := syntax.NewBuilder(4)
	b.MustAddMethod("f", b.Stmts(
		b.Async("", b.Stmts(b.Skip(""))),
	))
	if variant == 0 {
		b.MustAddMethod("main", b.Stmts(
			b.Finish("", b.Stmts(b.Call("", "f"))),
		))
	} else {
		b.MustAddMethod("main", b.Stmts(
			b.Call("", "f"),
			b.Skip(""),
			b.Skip(""),
		))
	}
	return b.MustProgram()
}

// TestMethodHashIgnoresUnrelatedEdits: editing main must not change
// f's content hash (f does not call main), while main's own hash must
// change.
func TestMethodHashIgnoresUnrelatedEdits(t *testing.T) {
	p0 := twoMethodProgram(t, 0)
	p1 := twoMethodProgram(t, 1)
	f0, _ := p0.MethodIndex("f")
	f1, _ := p1.MethodIndex("f")
	if p0.MethodHash(f0) != p1.MethodHash(f1) {
		t.Error("f's hash changed under an unrelated main edit")
	}
	if p0.MethodHash(p0.MainIndex) == p1.MethodHash(p1.MainIndex) {
		t.Error("main's hash did not change under a main edit")
	}
}

// TestMethodHashCoversCallees: a method's hash covers its whole
// call-graph subtree, so editing a callee changes the caller's hash
// too (that is what makes hash-equality imply summary-equality).
func TestMethodHashCoversCallees(t *testing.T) {
	build := func(calleeAsync bool) *syntax.Program {
		b := syntax.NewBuilder(4)
		if calleeAsync {
			b.MustAddMethod("g", b.Stmts(b.Async("", b.Stmts(b.Skip("")))))
		} else {
			b.MustAddMethod("g", b.Stmts(b.Skip("")))
		}
		b.MustAddMethod("main", b.Stmts(b.Call("", "g")))
		return b.MustProgram()
	}
	pa, pb := build(true), build(false)
	if pa.MethodHash(pa.MainIndex) == pb.MethodHash(pb.MainIndex) {
		t.Error("caller hash unchanged although its callee's body differs")
	}
}

// TestMethodHashIndexAndNameInvariance: rebuilding a program from
// scratch (fresh label indices) and reprinting/reparsing it (different
// index assignment order, same display names) must preserve every
// method's hash.
func TestMethodHashIndexAndNameInvariance(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.Generate(seed, progen.Default())
		clone := progen.Clone(p)
		reparsed, err := parser.Parse(syntax.Print(p))
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		for mi, m := range p.Methods {
			ci, ok := clone.MethodIndex(m.Name)
			if !ok {
				t.Fatalf("seed %d: clone lost method %q", seed, m.Name)
			}
			if p.MethodHash(mi) != clone.MethodHash(ci) {
				t.Errorf("seed %d: method %q hash differs after clone", seed, m.Name)
			}
			ri, ok := reparsed.MethodIndex(m.Name)
			if !ok {
				t.Fatalf("seed %d: reparse lost method %q", seed, m.Name)
			}
			if p.MethodHash(mi) != reparsed.MethodHash(ri) {
				t.Errorf("seed %d: method %q hash differs after print→reparse", seed, m.Name)
			}
		}
	}
}

// TestMethodInterning: content-identical methods of different programs
// resolve to the same canonical form pointer (the process-global
// intern table), and different contents to different pointers.
func TestMethodInterning(t *testing.T) {
	p0 := twoMethodProgram(t, 0)
	p1 := twoMethodProgram(t, 1)
	f0, _ := p0.MethodIndex("f")
	f1, _ := p1.MethodIndex("f")
	if p0.MethodCanon(f0) != p1.MethodCanon(f1) {
		t.Error("identical methods interned to different canonical forms")
	}
	if p0.MethodCanon(p0.MainIndex) == p1.MethodCanon(p1.MainIndex) {
		t.Error("different methods interned to the same canonical form")
	}
	canon := p0.MethodCanon(f0)
	if canon.NumLabels != len(p0.MethodSubtreeLabels(f0)) {
		t.Errorf("canonical NumLabels %d != subtree label count %d",
			canon.NumLabels, len(p0.MethodSubtreeLabels(f0)))
	}
}

// TestMethodHashClockedDistinctions: the canonical encoding must
// separate the clock constructs the phase analysis keys on — an
// unclocked async vs a clocked one over the same body, and an advance
// (next) at different positions relative to a spawn. Conflating any of
// these would let the summary cache and delta solver reuse values
// across programs with different phase structure.
func TestMethodHashClockedDistinctions(t *testing.T) {
	parse := func(src string) *syntax.Program {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return p
	}
	variants := map[string]*syntax.Program{
		"plain async": parse(`
array 2;
void main() { A: async { W: a[0] = 1; } D: a[1] = 1; }`),
		"clocked async": parse(`
array 2;
void main() { A: clocked async { W: a[0] = 1; } D: a[1] = 1; }`),
		"advance before spawn": parse(`
array 2;
void main() { N: advance; A: clocked async { W: a[0] = 1; } D: a[1] = 1; }`),
		"advance after spawn": parse(`
array 2;
void main() { A: clocked async { W: a[0] = 1; } N: advance; D: a[1] = 1; }`),
		"advance inside body": parse(`
array 2;
void main() { A: clocked async { N: advance; W: a[0] = 1; } D: a[1] = 1; }`),
	}
	hashes := map[syntax.ProgramHash]string{}
	for name, p := range variants {
		h := p.MethodHash(p.MainIndex)
		if prev, dup := hashes[h]; dup {
			t.Errorf("%q and %q share a method hash despite different clock structure", prev, name)
		}
		hashes[h] = name
	}
}

// TestMethodHashClockedRenumberingInvariance: clocked constructs keep
// the hash invariants the clock-free calculus has — rebuilding with
// fresh label indices and reprinting/reparsing preserve every method
// hash, and content-identical clocked methods intern to one canonical
// form.
func TestMethodHashClockedRenumberingInvariance(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.Generate(seed, progen.ClockedFinite())
		clone := progen.Clone(p)
		reparsed, err := parser.Parse(syntax.Print(p))
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		for mi, m := range p.Methods {
			ci, ok := clone.MethodIndex(m.Name)
			if !ok {
				t.Fatalf("seed %d: clone lost method %q", seed, m.Name)
			}
			if p.MethodHash(mi) != clone.MethodHash(ci) {
				t.Errorf("seed %d: clocked method %q hash differs after clone", seed, m.Name)
			}
			if p.MethodCanon(mi) != clone.MethodCanon(ci) {
				t.Errorf("seed %d: clocked method %q canonical form not shared with clone", seed, m.Name)
			}
			ri, ok := reparsed.MethodIndex(m.Name)
			if !ok {
				t.Fatalf("seed %d: reparse lost method %q", seed, m.Name)
			}
			if p.MethodHash(mi) != reparsed.MethodHash(ri) {
				t.Errorf("seed %d: clocked method %q hash differs after print→reparse", seed, m.Name)
			}
		}
	}
}

// TestProgramHashMemoized: Program.Hash is stable across calls and
// distinguishes different programs.
func TestProgramHashMemoized(t *testing.T) {
	p0 := twoMethodProgram(t, 0)
	p1 := twoMethodProgram(t, 1)
	if p0.Hash() != p0.Hash() {
		t.Error("Hash not stable across calls")
	}
	if p0.Hash() == p1.Hash() {
		t.Error("different programs share a program hash")
	}
	if progen.Clone(p0).Hash() != p0.Hash() {
		t.Error("structurally identical clone has a different program hash")
	}
}

// TestPrintReparseRoundTrip is the printer/parser round-trip property
// over a seeded progen corpus: reparsing a printed program must
// reproduce the same text, the same method set, and the same
// per-method content hashes. Label indices are allowed to differ (the
// parser numbers containers before bodies; the generator does not) —
// the display names and structure are what round-trips.
func TestPrintReparseRoundTrip(t *testing.T) {
	configs := []progen.Config{progen.Default(), progen.Finite()}
	for seed := int64(0); seed < 100; seed++ {
		p := progen.Generate(seed, configs[seed%2])
		text := syntax.Print(p)
		q, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, text)
		}
		if got := syntax.Print(q); got != text {
			t.Fatalf("seed %d: print→reparse→print not a fixpoint\nfirst:\n%s\nsecond:\n%s", seed, text, got)
		}
		if len(q.Methods) != len(p.Methods) {
			t.Fatalf("seed %d: method count %d → %d", seed, len(p.Methods), len(q.Methods))
		}
		names := map[string]bool{}
		for _, li := range p.Labels {
			names[li.Name] = true
		}
		for _, li := range q.Labels {
			if !names[li.Name] {
				t.Fatalf("seed %d: reparse invented label name %q", seed, li.Name)
			}
			delete(names, li.Name)
		}
		for name := range names {
			t.Fatalf("seed %d: reparse lost label name %q", seed, name)
		}
		for mi, m := range p.Methods {
			qi, ok := q.MethodIndex(m.Name)
			if !ok {
				t.Fatalf("seed %d: reparse lost method %q", seed, m.Name)
			}
			if p.MethodHash(mi) != q.MethodHash(qi) {
				t.Fatalf("seed %d: method %q content hash changed across round-trip", seed, m.Name)
			}
		}
	}
}

// TestHashStreamsPrint: Hash digests the printed form as it streams,
// so it equals sha256 of Print, and Print's bytes are pinned: every
// instruction form at several depths, and a corpus digest that spans
// many printer chunks (the huge program's text is far over one).
func TestHashStreamsPrint(t *testing.T) {
	b := syntax.NewBuilder(8)
	b.MustAddMethod("f", b.Stmts(b.Next("N")))
	b.MustAddMethod("main", b.Stmts(
		b.Finish("F", b.Stmts(
			b.AsyncAt("P", 3, b.Stmts(b.Assign("X", 1, syntax.Const{C: -7}))),
			b.ClockedAsync("C", b.Stmts(b.Call("G", "f"))),
		)),
		b.While("W", 2, b.Stmts(b.Assign("Y", 0, syntax.Plus{D: 5}), b.Skip("S"))),
	))
	p := b.MustProgram()
	const want = `array 8;

void f() {
  N: next;
}

void main() {
  F: finish {
    P: async at (3) {
      X: a[1] = -7;
    }
    C: clocked async {
      G: f();
    }
  }
  W: while (a[2] != 0) {
    Y: a[0] = a[5] + 1;
    S: skip;
  }
}
`
	if got := syntax.Print(p); got != want {
		t.Fatalf("Print:\n%s\nwant:\n%s", got, want)
	}

	corpus := []*syntax.Program{p, progen.GenerateHuge(1, progen.Huge(2000))}
	for seed := int64(0); seed < 40; seed++ {
		corpus = append(corpus, progen.Generate(seed, progen.Default()), progen.Generate(seed, progen.ClockedFinite()))
	}
	all := sha256.New()
	for i, q := range corpus {
		text := syntax.Print(q)
		if q.Hash() != sha256.Sum256([]byte(text)) {
			t.Fatalf("program %d: Hash is not sha256 of Print", i)
		}
		all.Write([]byte(text))
	}
	const pinned = "3ddcbf99da029a6bdaa06ae35173030b6d6a9094b7944ca3353409e4018d127c"
	if got := hex.EncodeToString(all.Sum(nil)); got != pinned {
		t.Errorf("corpus print digest = %s, want %s", got, pinned)
	}
}
