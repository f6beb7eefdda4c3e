package syntax

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Print renders the program in the concrete syntax accepted by
// internal/parser, with every label written explicitly so the result
// round-trips (modulo auto-generated label names, which are preserved
// verbatim).
func Print(p *Program) string {
	var b strings.Builder
	writeProgram(&b, p)
	return b.String()
}

// writeProgram streams Print(p) to w, which is how Hash digests the
// printed form without holding all of it.
func writeProgram(w io.Writer, p *Program) {
	pr := &printer{p: p, w: w, buf: make([]byte, 0, printChunk)}
	pr.put("array ")
	pr.num(int64(p.ArrayLen))
	pr.put(";\n\n")
	for mi, m := range p.Methods {
		if mi > 0 {
			pr.put("\n")
		}
		pr.put("void ")
		pr.put(m.Name)
		pr.put("() {\n")
		pr.stmt(m.Body, 1)
		pr.put("}\n")
	}
	pr.flush()
}

// PrintStmt renders one statement in concrete syntax at the given
// indent depth. Useful for diagnostics and tree display.
func PrintStmt(p *Program, s *Stmt) string {
	var b strings.Builder
	pr := &printer{p: p, w: &b}
	pr.stmt(s, 0)
	pr.flush()
	return b.String()
}

// printChunk is how many bytes the printer buffers before writing.
const printChunk = 4096

// printer appends concrete syntax to buf and hands it to w in chunks
// of about printChunk bytes.
type printer struct {
	p   *Program
	w   io.Writer
	buf []byte
}

func (pr *printer) put(s string) { pr.buf = append(pr.buf, s...) }

func (pr *printer) num(v int64) { pr.buf = strconv.AppendInt(pr.buf, v, 10) }

func (pr *printer) indent(depth int) {
	for ; depth > 0; depth-- {
		pr.put("  ")
	}
}

func (pr *printer) flush() {
	// w is a strings.Builder or a hash, whose Write never fails.
	_, _ = pr.w.Write(pr.buf)
	pr.buf = pr.buf[:0]
}

func (pr *printer) stmt(s *Stmt, depth int) {
	for cur := s; cur != nil; cur = cur.Next {
		pr.instr(cur.Instr, depth)
		if len(pr.buf) >= printChunk {
			pr.flush()
		}
	}
}

// block prints " {", the body one level deeper, and the closing brace.
func (pr *printer) block(body *Stmt, depth int) {
	pr.put(" {\n")
	pr.stmt(body, depth+1)
	pr.indent(depth)
	pr.put("}\n")
}

func (pr *printer) instr(i Instr, depth int) {
	pr.indent(depth)
	pr.put(pr.p.LabelName(i.Label()))
	pr.put(": ")
	switch i := i.(type) {
	case *Skip:
		pr.put("skip;\n")
	case *Assign:
		pr.put("a[")
		pr.num(int64(i.D))
		pr.put("] = ")
		switch e := i.Rhs.(type) {
		case Const:
			pr.num(e.C)
		case Plus:
			pr.put("a[")
			pr.num(int64(e.D))
			pr.put("] + 1")
		default:
			pr.buf = fmt.Appendf(pr.buf, "%s", e)
		}
		pr.put(";\n")
	case *While:
		pr.put("while (a[")
		pr.num(int64(i.D))
		pr.put("] != 0)")
		pr.block(i.Body, depth)
	case *Async:
		if i.Clocked {
			pr.put("clocked ")
		}
		pr.put("async")
		if i.Place != 0 {
			pr.put(" at (")
			pr.num(int64(i.Place))
			pr.put(")")
		}
		pr.block(i.Body, depth)
	case *Finish:
		pr.put("finish")
		pr.block(i.Body, depth)
	case *Call:
		pr.put(i.Name)
		pr.put("();\n")
	case *Next:
		pr.put("next;\n")
	default:
		pr.put("???;\n")
	}
}

// InstrString renders a single instruction on one line (bodies
// elided), for diagnostics.
func InstrString(p *Program, i Instr) string {
	lbl := p.LabelName(i.Label())
	switch i := i.(type) {
	case *Skip:
		return fmt.Sprintf("%s: skip", lbl)
	case *Assign:
		return fmt.Sprintf("%s: a[%d] = %s", lbl, i.D, i.Rhs)
	case *While:
		return fmt.Sprintf("%s: while (a[%d] != 0) {…}", lbl, i.D)
	case *Async:
		return fmt.Sprintf("%s: async {…}", lbl)
	case *Finish:
		return fmt.Sprintf("%s: finish {…}", lbl)
	case *Call:
		return fmt.Sprintf("%s: %s()", lbl, i.Name)
	case *Next:
		return fmt.Sprintf("%s: next", lbl)
	}
	return lbl + ": ???"
}
