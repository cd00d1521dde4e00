package sem

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"semnids/internal/x86"
)

const sampleDSL = `
# The Figure 2 template in the text format.
template xor-decrypt-loop severity=high
  desc polymorphic decryption loop
  memxform [A] ops=xor,add,sub key=B size=1
  advance A delta=1..4
  backedge

template linux-shell-spawn severity=critical
  const 0x6e69622f,0x68732f2f
  syscall 0xb

template port-bind-shell severity=critical
  syscall 0x66 ebx=2
  syscall 0xb
`

func TestParseTemplates(t *testing.T) {
	tpls, err := ParseTemplates(strings.NewReader(sampleDSL))
	if err != nil {
		t.Fatal(err)
	}
	if len(tpls) != 3 {
		t.Fatalf("%d templates, want 3", len(tpls))
	}
	x := tpls[0]
	if x.Name != "xor-decrypt-loop" || x.Severity != "high" ||
		x.Description != "polymorphic decryption loop" {
		t.Errorf("header: %+v", x)
	}
	if len(x.Stmts) != 3 {
		t.Fatalf("%d statements", len(x.Stmts))
	}
	s0 := x.Stmts[0]
	if s0.Kind != SMemXform || s0.Ptr != "A" || s0.Key != "B" || s0.MemSize != 1 {
		t.Errorf("memxform: %+v", s0)
	}
	if !reflect.DeepEqual(s0.Ops, []x86.Opcode{x86.XOR, x86.ADD, x86.SUB}) {
		t.Errorf("ops: %v", s0.Ops)
	}
	if x.Stmts[1].Kind != SAdvance || x.Stmts[1].MinDelta != 1 || x.Stmts[1].MaxDelta != 4 {
		t.Errorf("advance: %+v", x.Stmts[1])
	}
	pb := tpls[2]
	if pb.Stmts[0].EBX == nil || *pb.Stmts[0].EBX != 2 {
		t.Errorf("syscall ebx: %+v", pb.Stmts[0])
	}
}

func TestParsedTemplatesActuallyMatch(t *testing.T) {
	tpls, err := ParseTemplates(strings.NewReader(sampleDSL))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(tpls)
	// The Figure 1(b) routine must match the parsed xor template.
	code := x86.NewAsm().
		Label("decode").
		MovRI(x86.EBX, 0x31).
		AddRI(x86.EBX, 0x64).
		I(x86.XOR, mem8(x86.EAX), x86.RegOp(x86.BL)).
		AddRI(x86.EAX, 1).
		Loop("decode").
		MustBytes()
	found := false
	for _, d := range a.AnalyzeFrame(code) {
		if d.Template == "xor-decrypt-loop" {
			found = true
		}
	}
	if !found {
		t.Error("parsed template did not match figure 1(b)")
	}
}

// TestDSLRoundTrip: every built-in template survives format -> parse.
func TestDSLRoundTrip(t *testing.T) {
	orig := BuiltinTemplates()
	var buf bytes.Buffer
	if err := FormatTemplates(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTemplates(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n---\n%s", err, buf.String())
	}
	if len(parsed) != len(orig) {
		t.Fatalf("parsed %d templates, want %d", len(parsed), len(orig))
	}
	for i := range orig {
		a, b := orig[i], parsed[i]
		if a.Name != b.Name || a.Severity != b.Severity || len(a.Stmts) != len(b.Stmts) {
			t.Errorf("template %d header mismatch: %+v vs %+v", i, a, b)
			continue
		}
		for j := range a.Stmts {
			sa, sb := a.Stmts[j], b.Stmts[j]
			// Pointer equality of EBX can differ; compare values.
			if (sa.EBX == nil) != (sb.EBX == nil) ||
				(sa.EBX != nil && *sa.EBX != *sb.EBX) {
				t.Errorf("template %s stmt %d EBX mismatch", a.Name, j)
			}
			sa.EBX, sb.EBX = nil, nil
			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("template %s stmt %d:\n  %+v\nvs\n  %+v", a.Name, j, sa, sb)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"memxform [A] ops=xor",                          // statement before template
		"template t\n  bogus foo",                       // unknown statement
		"template t\n  memxform ops=xor",                // missing [Ptr]
		"template t\n  memxform [A] ops=frobnicate",     // unknown op
		"template t\n  syscall",                         // missing number
		"template t\n  syscall 0xzz",                    // bad number
		"template t\n  advance",                         // missing var
		"template t\n  framedata unquoted",              // missing quotes
		"template t\n  constrange R",                    // missing range
		"template t",                                    // no statements
		"template",                                      // no name
		"template t\n  memxform [A] ops=xor nonsense=1", // unknown arg
	}
	for _, c := range cases {
		if _, err := ParseTemplates(strings.NewReader(c)); err == nil {
			t.Errorf("accepted invalid input %q", c)
		}
	}
}

// TestParseRefusesInvalidUTF8Name: a template name that is not valid
// UTF-8 would reach the wire as U+FFFD, so the parser refuses it.
func TestParseRefusesInvalidUTF8Name(t *testing.T) {
	_, err := ParseTemplates(strings.NewReader("template t\xff\n  syscall 11"))
	if err == nil || !strings.Contains(err.Error(), "template name") {
		t.Fatalf("name t\\xff: %v, want an error naming the template name", err)
	}
	if _, err := ParseTemplates(strings.NewReader("template tö\n  syscall 11")); err != nil {
		t.Fatalf("valid non-ASCII name: %v", err)
	}
}

func TestParseOptional(t *testing.T) {
	tpls, err := ParseTemplates(strings.NewReader(
		"template t\n  const 0x1 optional\n  syscall 0xb\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !tpls[0].Stmts[0].Optional || tpls[0].Stmts[1].Optional {
		t.Errorf("optional parsing: %+v", tpls[0].Stmts)
	}
}
