package sem

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"semnids/internal/x86"
)

// This file implements a small text format for templates so new
// behaviors can be described without recompiling — the paper's Section
// 6 plan ("classify more exploit behaviors so that we can generate
// additional useful templates").
//
// Grammar (line oriented; '#' starts a comment):
//
//	template <name> [severity=<level>]
//	  desc <free text>
//	  memxform [<Ptr>] ops=xor,add,sub [key=<Key>] [size=<n>]
//	  memload [<Ptr>] reg=<Reg> [size=<n>]
//	  memstore [<Ptr>] [size=<n>]
//	  regxform ops=mov,or,and,not [rep=<min>..<max>]
//	  advance <Ptr> [delta=<min>..<max>]
//	  backedge
//	  syscall <num> [ebx=<num>]
//	  const <v1>,<v2>,...
//	  constrange <Reg> <lo>..<hi>
//	  indirect <Reg> [<lo>..<hi>]
//	  framedata "<bytes>"
//
// Any statement may carry a trailing `optional` keyword.

// opNames usable in ops= lists.
var dslOps = map[string]x86.Opcode{
	"xor": x86.XOR, "add": x86.ADD, "sub": x86.SUB, "mov": x86.MOV,
	"or": x86.OR, "and": x86.AND, "not": x86.NOT, "neg": x86.NEG,
	"rol": x86.ROL, "ror": x86.ROR, "shl": x86.SHL, "shr": x86.SHR,
}

var dslOpNames = func() map[x86.Opcode]string {
	m := make(map[x86.Opcode]string, len(dslOps))
	for k, v := range dslOps {
		m[v] = k
	}
	return m
}()

// ParseTemplates reads the template text format.
func ParseTemplates(r io.Reader) ([]*Template, error) {
	var out []*Template
	var cur *Template
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "template" {
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: template needs a name", lineno)
			}
			if !utf8.ValidString(fields[1]) {
				return nil, fmt.Errorf("line %d: template name %q is not valid UTF-8 (evidence frames carry it as a JSON string)", lineno, fields[1])
			}
			cur = &Template{Name: fields[1], Severity: "medium"}
			for _, f := range fields[2:] {
				if v, ok := strings.CutPrefix(f, "severity="); ok {
					cur.Severity = v
				}
			}
			out = append(out, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: statement before any template", lineno)
		}
		if fields[0] == "desc" {
			cur.Description = strings.TrimSpace(strings.TrimPrefix(line, "desc"))
			continue
		}
		st, err := parseStmt(fields)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		cur.Stmts = append(cur.Stmts, st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, t := range out {
		if len(t.Stmts) == 0 {
			return nil, fmt.Errorf("template %s has no statements", t.Name)
		}
		if n := countVars(t.Stmts); n > maxTemplateVars {
			return nil, fmt.Errorf("template %s names %d variables (max %d)", t.Name, n, maxTemplateVars)
		}
	}
	return out, nil
}

// countVars returns the number of distinct variables (register and
// key) the statements name; the compiled matcher indexes bindings by a
// fixed-size variable id.
func countVars(stmts []Stmt) int {
	seen := map[string]bool{}
	for i := range stmts {
		for _, v := range varRefs(&stmts[i]) {
			seen[v] = true
		}
		if k := stmts[i].Key; k != "" {
			seen[k] = true
		}
	}
	return len(seen)
}

func parseStmt(fields []string) (Stmt, error) {
	var st Stmt
	rest := fields[1:]
	// Trailing `optional`.
	if n := len(rest); n > 0 && rest[n-1] == "optional" {
		st.Optional = true
		rest = rest[:n-1]
	}

	parseRange := func(s string) (int64, int64, error) {
		lo, hi, ok := strings.Cut(s, "..")
		if !ok {
			v, err := strconv.ParseInt(s, 0, 64)
			return v, v, err
		}
		l, err := strconv.ParseInt(lo, 0, 64)
		if err != nil {
			return 0, 0, err
		}
		h, err := strconv.ParseInt(hi, 0, 64)
		return l, h, err
	}
	parseOps := func(s string) ([]x86.Opcode, error) {
		var ops []x86.Opcode
		for _, name := range strings.Split(s, ",") {
			op, ok := dslOps[name]
			if !ok {
				return nil, fmt.Errorf("unknown op %q", name)
			}
			ops = append(ops, op)
		}
		return ops, nil
	}
	ptrArg := func(s string) (string, bool) {
		if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
			return s[1 : len(s)-1], true
		}
		return "", false
	}

	switch fields[0] {
	case "memxform", "memload", "memstore":
		switch fields[0] {
		case "memxform":
			st.Kind = SMemXform
		case "memload":
			st.Kind = SMemLoad
		case "memstore":
			st.Kind = SMemStore
		}
		for _, f := range rest {
			if p, ok := ptrArg(f); ok {
				st.Ptr = p
				continue
			}
			switch {
			case strings.HasPrefix(f, "ops="):
				ops, err := parseOps(f[4:])
				if err != nil {
					return st, err
				}
				st.Ops = ops
			case strings.HasPrefix(f, "key="):
				st.Key = f[4:]
			case strings.HasPrefix(f, "reg="):
				st.Reg = f[4:]
			case strings.HasPrefix(f, "size="):
				v, err := strconv.Atoi(f[5:])
				if err != nil {
					return st, err
				}
				st.MemSize = uint8(v)
			default:
				return st, fmt.Errorf("unknown argument %q", f)
			}
		}
		if st.Ptr == "" {
			return st, fmt.Errorf("%s needs a [Ptr] argument", fields[0])
		}
		return st, nil

	case "regxform":
		st.Kind = SRegXform
		for _, f := range rest {
			switch {
			case strings.HasPrefix(f, "ops="):
				ops, err := parseOps(f[4:])
				if err != nil {
					return st, err
				}
				st.Ops = ops
			case strings.HasPrefix(f, "rep="):
				lo, hi, err := parseRange(f[4:])
				if err != nil {
					return st, err
				}
				st.MinRep, st.MaxRep = int(lo), int(hi)
			default:
				return st, fmt.Errorf("unknown argument %q", f)
			}
		}
		return st, nil

	case "advance":
		st.Kind = SAdvance
		if len(rest) < 1 {
			return st, fmt.Errorf("advance needs a pointer variable")
		}
		st.Ptr = rest[0]
		for _, f := range rest[1:] {
			if strings.HasPrefix(f, "delta=") {
				lo, hi, err := parseRange(f[6:])
				if err != nil {
					return st, err
				}
				st.MinDelta, st.MaxDelta = lo, hi
			} else {
				return st, fmt.Errorf("unknown argument %q", f)
			}
		}
		return st, nil

	case "backedge":
		st.Kind = SBackEdge
		return st, nil

	case "syscall":
		st.Kind = SSyscall
		if len(rest) < 1 {
			return st, fmt.Errorf("syscall needs a number")
		}
		v, err := strconv.ParseUint(rest[0], 0, 32)
		if err != nil {
			return st, err
		}
		st.Num = uint32(v)
		for _, f := range rest[1:] {
			if strings.HasPrefix(f, "ebx=") {
				b, err := strconv.ParseUint(f[4:], 0, 32)
				if err != nil {
					return st, err
				}
				bv := uint32(b)
				st.EBX = &bv
			} else {
				return st, fmt.Errorf("unknown argument %q", f)
			}
		}
		return st, nil

	case "const":
		st.Kind = SConst
		if len(rest) < 1 {
			return st, fmt.Errorf("const needs values")
		}
		for _, s := range strings.Split(rest[0], ",") {
			v, err := strconv.ParseUint(s, 0, 32)
			if err != nil {
				return st, err
			}
			st.Values = append(st.Values, uint32(v))
		}
		return st, nil

	case "constrange":
		st.Kind = SConstInRange
		if len(rest) < 2 {
			return st, fmt.Errorf("constrange needs a register variable and a range")
		}
		st.Reg = rest[0]
		lo, hi, err := parseRange(rest[1])
		if err != nil {
			return st, err
		}
		st.Lo, st.Hi = uint32(lo), uint32(hi)
		return st, nil

	case "indirect":
		st.Kind = SIndirect
		if len(rest) >= 1 {
			st.Reg = rest[0]
		}
		if len(rest) >= 2 {
			lo, hi, err := parseRange(rest[1])
			if err != nil {
				return st, err
			}
			st.Lo, st.Hi = uint32(lo), uint32(hi)
		}
		return st, nil

	case "framedata":
		st.Kind = SFrameData
		raw := strings.TrimSpace(strings.Join(rest, " "))
		s, err := strconv.Unquote(raw)
		if err != nil {
			return st, fmt.Errorf("framedata needs a quoted string: %w", err)
		}
		st.FrameBytes = []byte(s)
		return st, nil
	}
	return st, fmt.Errorf("unknown statement %q", fields[0])
}

// FormatTemplates renders templates back into the text format; the
// output re-parses to equivalent templates.
func FormatTemplates(w io.Writer, tpls []*Template) error {
	for i, t := range tpls {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "template %s severity=%s\n", t.Name, t.Severity); err != nil {
			return err
		}
		if t.Description != "" {
			if _, err := fmt.Fprintf(w, "  desc %s\n", t.Description); err != nil {
				return err
			}
		}
		for i := range t.Stmts {
			if _, err := fmt.Fprintf(w, "  %s\n", formatStmt(&t.Stmts[i])); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatStmt(st *Stmt) string {
	var b strings.Builder
	opsList := func() string {
		names := make([]string, len(st.Ops))
		for i, op := range st.Ops {
			names[i] = dslOpNames[op]
		}
		return strings.Join(names, ",")
	}
	switch st.Kind {
	case SMemXform:
		fmt.Fprintf(&b, "memxform [%s] ops=%s", st.Ptr, opsList())
		if st.Key != "" {
			fmt.Fprintf(&b, " key=%s", st.Key)
		}
		if st.MemSize != 0 {
			fmt.Fprintf(&b, " size=%d", st.MemSize)
		}
	case SMemLoad:
		fmt.Fprintf(&b, "memload [%s] reg=%s", st.Ptr, st.Reg)
		if st.MemSize != 0 {
			fmt.Fprintf(&b, " size=%d", st.MemSize)
		}
	case SMemStore:
		fmt.Fprintf(&b, "memstore [%s]", st.Ptr)
		if st.MemSize != 0 {
			fmt.Fprintf(&b, " size=%d", st.MemSize)
		}
	case SRegXform:
		fmt.Fprintf(&b, "regxform ops=%s", opsList())
		if st.MinRep != 0 || st.MaxRep != 0 {
			fmt.Fprintf(&b, " rep=%d..%d", st.MinRep, st.MaxRep)
		}
	case SAdvance:
		fmt.Fprintf(&b, "advance %s", st.Ptr)
		if st.MinDelta != 0 || st.MaxDelta != 0 {
			fmt.Fprintf(&b, " delta=%d..%d", st.MinDelta, st.MaxDelta)
		}
	case SBackEdge:
		b.WriteString("backedge")
	case SSyscall:
		fmt.Fprintf(&b, "syscall %#x", st.Num)
		if st.EBX != nil {
			fmt.Fprintf(&b, " ebx=%d", *st.EBX)
		}
	case SConst:
		vals := make([]string, len(st.Values))
		for i, v := range st.Values {
			vals[i] = fmt.Sprintf("%#x", v)
		}
		fmt.Fprintf(&b, "const %s", strings.Join(vals, ","))
	case SConstInRange:
		fmt.Fprintf(&b, "constrange %s %#x..%#x", st.Reg, st.Lo, st.Hi)
	case SIndirect:
		fmt.Fprintf(&b, "indirect %s", st.Reg)
		if st.Lo != 0 || st.Hi != 0 {
			fmt.Fprintf(&b, " %#x..%#x", st.Lo, st.Hi)
		}
	case SFrameData:
		fmt.Fprintf(&b, "framedata %q", string(st.FrameBytes))
	}
	if st.Optional {
		b.WriteString(" optional")
	}
	return b.String()
}
