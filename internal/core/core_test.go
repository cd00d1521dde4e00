package core

import (
	"testing"

	"semnids/internal/exploits"
)

func TestAnalyzeBytesHostScan(t *testing.T) {
	bin := exploits.NetskyBinary(1, 22*1024)
	ds := AnalyzeBytes(bin, nil)
	found := false
	for _, d := range ds {
		if d.Template == "xor-decrypt-loop" {
			found = true
		}
	}
	if !found {
		t.Error("host scan missed the netsky decryptor")
	}
}
