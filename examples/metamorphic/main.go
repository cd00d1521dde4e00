// Metamorphic triangle: mutate a shell-spawning payload with the
// metamorphic engine, EXECUTE each variant in the emulator to prove it
// still works, show that static signatures lose it, and that the
// semantic templates keep it. Detection that survives working
// metamorphism is the paper's whole thesis, demonstrated dynamically.
//
//	go run ./examples/metamorphic
package main

import (
	"fmt"
	"log"

	nids "semnids"
	"semnids/internal/emu"
	"semnids/internal/morph"
	"semnids/internal/shellcode"
	"semnids/internal/sigmatch"
	"semnids/internal/x86"
)

func main() {
	payload := shellcode.ClassicPush().Bytes
	static := sigmatch.NewMatcher(sigmatch.DefaultSignatures())
	mut := morph.New(2006)
	mut.SubstProb = 1.0
	mut.JunkProb = 0.8

	fmt.Printf("original payload: %d bytes, static signatures: %v\n\n",
		len(payload), static.Match(payload))

	const rounds = 10
	executed, staticHits, semanticHits := 0, 0, 0
	for i := 0; i < rounds; i++ {
		variant, err := mut.Mutate(payload)
		if err != nil {
			log.Fatal(err)
		}

		// 1. Execute: the variant must still spawn the shell.
		m := emu.New(variant)
		stop, err := m.Explore(0)
		works := err == nil && stop.Kind == emu.StopSyscall && stop.Sysnum == 0xb
		if works {
			executed++
		}

		// 2. Static signatures.
		specific := 0
		for _, name := range static.Match(variant) {
			if name != "nop-sled" {
				specific++
			}
		}
		if specific > 0 {
			staticHits++
		}

		// 3. Semantic templates.
		detected := false
		for _, d := range nids.AnalyzeBytes(variant) {
			if d.Template == "linux-shell-spawn" {
				detected = true
			}
		}
		if detected {
			semanticHits++
		}

		fmt.Printf("variant %2d: %3d bytes  executes=%v  eax@int80=%#x  static=%d  semantic=%v\n",
			i, len(variant), works, m.Reg(x86.EAX), specific, detected)
		payload = variant // mutate the mutation: generations compound
	}

	fmt.Printf("\nover %d compounding generations:\n", rounds)
	fmt.Printf("  still execute a shell spawn: %d/%d\n", executed, rounds)
	fmt.Printf("  caught by static signatures: %d/%d\n", staticHits, rounds)
	fmt.Printf("  caught by semantic template: %d/%d\n", semanticHits, rounds)
	if executed != rounds || semanticHits != rounds {
		log.Fatal("metamorphic triangle violated")
	}
}
