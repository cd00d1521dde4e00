package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestHelpGolden pins the flag surface: names, defaults and help text
// must read exactly as testdata/flags.golden, so binding a flag to a
// config field or taking its default from a package constant cannot
// change what an operator sees.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("semnids", flag.ContinueOnError)
	bindFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag help changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
