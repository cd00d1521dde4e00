// Email-worm detection (the paper's Section 6 future work): a mass
// mailer submits a message whose base64 attachment is a packed
// executable carrying a decryption loop. The NIDS reassembles the SMTP
// stream, decodes the MIME attachment, and the same decryption-loop
// template that catches packed viruses on disk fires on the wire.
//
//	go run ./examples/emailworm
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"

	nids "semnids"
	"semnids/internal/exploits"
	"semnids/internal/report"
	"semnids/internal/traffic"
)

func main() {
	detector, err := nids.NewEngine(nids.EngineConfig{Config: nids.Config{
		// A mail operator scans all submissions: classification off.
		DisableClassification: true,
	}})
	if err != nil {
		log.Fatal(err)
	}

	g := traffic.NewGen(2006)

	// Benign mail first.
	for i := 0; i < 5; i++ {
		for _, p := range g.SMTPSession(g.RandClient()) {
			if err := detector.ProcessFrame(p.Serialize(), p.TimestampUS); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The infected message: a Netsky-like 16 KB packed binary.
	worm := exploits.NetskyBinary(9, 16*1024)
	infected := netip.MustParseAddr("10.200.1.7")
	for _, p := range g.InfectedMailSession(infected, worm) {
		if err := detector.ProcessFrame(p.Serialize(), p.TimestampUS); err != nil {
			log.Fatal(err)
		}
	}
	detector.Stop()

	stats := detector.Stats()
	fmt.Printf("processed %d packets, %d frames analyzed (%d bytes)\n",
		stats.Packets, stats.Frames, stats.FrameBytes)
	fmt.Println("\nincident summary:")
	if err := report.WriteSummary(os.Stdout, detector.Alerts()); err != nil {
		log.Fatal(err)
	}
	for _, a := range detector.Alerts() {
		fmt.Printf("\n%s\n  via %s, bindings %v\n",
			a.Detection.Description, a.FrameSource, a.Detection.Bindings)
	}
	if len(detector.Alerts()) == 0 {
		os.Exit(1)
	}
}
