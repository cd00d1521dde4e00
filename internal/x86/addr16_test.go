package x86

import "testing"

// 16-bit addressing (0x67 prefix) decode coverage: junk generators and
// hand-obfuscated code occasionally emit these forms.
func TestDecode16BitAddressing(t *testing.T) {
	cases := []struct {
		bytes []byte
		want  string
	}{
		{[]byte{0x67, 0x8b, 0x07}, "mov eax, dword ptr [bx]"},
		{[]byte{0x67, 0x8b, 0x00}, "mov eax, dword ptr [bx+si]"},
		{[]byte{0x67, 0x8b, 0x02}, "mov eax, dword ptr [bp+si]"},
		{[]byte{0x67, 0x8b, 0x44, 0x10}, "mov eax, dword ptr [si+0x10]"},
		{[]byte{0x67, 0x8b, 0x85, 0x00, 0x10}, "mov eax, dword ptr [di+0x1000]"},
		{[]byte{0x67, 0x8b, 0x06, 0x34, 0x12}, "mov eax, dword ptr [0x1234]"},
		{[]byte{0x67, 0x8a, 0x04}, "mov al, byte ptr [si]"},
	}
	for _, c := range cases {
		in, err := Decode(c.bytes, 0)
		if err != nil {
			t.Errorf("Decode(% x): %v", c.bytes, err)
			continue
		}
		if got := in.String(); got != c.want {
			t.Errorf("Decode(% x) = %q, want %q", c.bytes, got, c.want)
		}
		if int(in.Len) != len(c.bytes) {
			t.Errorf("Decode(% x) len = %d, want %d", c.bytes, in.Len, len(c.bytes))
		}
	}
	// Negative 8-bit displacement.
	in, err := Decode([]byte{0x67, 0x8b, 0x44, 0xf0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Args[1].Mem.Disp != -16 {
		t.Errorf("disp = %d, want -16", in.Args[1].Mem.Disp)
	}
	// Truncated 16-bit forms must error, not panic.
	for _, b := range [][]byte{
		{0x67, 0x8b},
		{0x67, 0x8b, 0x06, 0x34},
		{0x67, 0x8b, 0x44},
	} {
		if _, err := Decode(b, 0); err == nil {
			t.Errorf("truncated % x decoded", b)
		}
	}
}

// Mixed prefix combinations stay coherent.
func TestDecodePrefixCombos(t *testing.T) {
	// 66+67: 16-bit operand and address size.
	in, err := Decode([]byte{0x66, 0x67, 0x8b, 0x07}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.String() != "mov ax, word ptr [bx]" {
		t.Errorf("got %q", in)
	}
	// Redundant repeated prefixes are tolerated up to the x86 limit.
	b := []byte{0x66, 0x66, 0x66, 0xb8, 0x34, 0x12}
	in, err = Decode(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.String() != "mov ax, 0x1234" {
		t.Errorf("got %q", in)
	}
	// A prefix-only stream must terminate with an error.
	if _, err := Decode([]byte{0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
		0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66}, 0); err == nil {
		t.Error("prefix bomb decoded")
	}
}

func TestFormatterEdgeCases(t *testing.T) {
	// Negative displacement rendering.
	in, _ := Decode([]byte{0x8b, 0x45, 0xfc}, 0) // mov eax, [ebp-4]
	if in.String() != "mov eax, dword ptr [ebp-0x4]" {
		t.Errorf("got %q", in)
	}
	// SIB with scale.
	in, _ = Decode([]byte{0x8b, 0x04, 0xcd, 0x00, 0x00, 0x00, 0x00}, 0)
	if in.String() != "mov eax, dword ptr [ecx*8]" {
		t.Errorf("got %q", in)
	}
	// Negative immediate.
	in, _ = Decode([]byte{0x83, 0xc0, 0xff}, 0) // add eax, -1
	if in.String() != "add eax, -0x1" {
		t.Errorf("got %q", in)
	}
}
