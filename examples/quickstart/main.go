// Quickstart: stand up the semantics-aware NIDS, replay an exploit
// delivery at a honeypot, and print the alerts.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"

	nids "semnids"
	"semnids/internal/exploits"
	"semnids/internal/traffic"
)

func main() {
	// 1. Configure the detector: one decoy host and the network's
	//    un-used address space.
	detector, err := nids.NewEngine(nids.EngineConfig{Config: nids.Config{
		Honeypots:     []string{"192.168.1.250"},
		DarkSpace:     []string{"192.168.2.0/24"},
		ScanThreshold: 3,
		OnAlert: func(a nids.Alert) {
			fmt.Println("ALERT:", a)
		},
	}})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Replay traffic. Here we synthesize it: an attacker delivers a
	//    classic shell-spawning buffer overflow to the decoy.
	g := traffic.NewGen(1)
	attacker := netip.MustParseAddr("10.66.66.66")
	exploit := exploits.Table1Exploits()[0]
	for _, pkt := range g.ExploitAtHoneypot(attacker, exploit.DstPort, exploit.Payload) {
		// In a real deployment these frames come from a capture
		// interface or a pcap file (see Run).
		if err := detector.ProcessFrame(pkt.Serialize(), pkt.TimestampUS); err != nil {
			log.Printf("frame: %v", err)
		}
	}

	// 3. Finish pending analysis, stop the engine and summarize.
	detector.Stop()
	stats := detector.Stats()
	fmt.Printf("\nprocessed %d packets, analyzed %d frames, %d alerts\n",
		stats.Packets, stats.Frames, stats.Alerts)
	for _, a := range detector.Alerts() {
		fmt.Printf("  %-24s severity=%-8s bindings=%v\n",
			a.Detection.Template, a.Detection.Severity, a.Detection.Bindings)
	}
}
