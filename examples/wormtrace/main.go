// Worm trace analysis: synthesize a production-like trace with benign
// web/DNS/mail background and a known number of Code Red II
// infections, write it to a pcap file, then run the NIDS over the file
// and compare detections against ground truth — the paper's Table 3
// experiment end to end, including the pcap substrate.
//
//	go run ./examples/wormtrace
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	nids "semnids"
	"semnids/internal/traffic"
)

func main() {
	const instances = 4
	dir, err := os.MkdirTemp("", "semnids-wormtrace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.pcap")

	// 1. Synthesize and store the trace.
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	count, err := traffic.WritePcap(f, traffic.TraceSpec{
		Seed:             2006,
		BenignSessions:   1500,
		CodeRedInstances: instances,
	})
	if err != nil {
		log.Fatal(err)
	}
	f.Close()
	fi, _ := os.Stat(path)
	fmt.Printf("trace: %d packets, %.1f MB, %d Code Red II instances planted\n",
		count, float64(fi.Size())/(1<<20), instances)

	// 2. Run the NIDS over the stored trace.
	detector, err := nids.NewEngine(nids.EngineConfig{Config: nids.Config{
		Honeypots: []string{"192.168.1.250"},
		DarkSpace: []string{"192.168.2.0/24"},
	}})
	if err != nil {
		log.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	err = detector.Run(in)
	detector.Stop()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compare with ground truth.
	sources := map[string]bool{}
	for _, a := range detector.Alerts() {
		if a.Detection.Template == "code-red-ii" {
			sources[a.Src.String()] = true
			fmt.Println("  infected source:", a.Src)
		}
	}
	stats := detector.Stats()
	fmt.Printf("packets=%d selected=%d (%.2f%% of traffic reached deep analysis)\n",
		stats.Packets, stats.Selected, 100*float64(stats.Selected)/float64(stats.Packets))
	fmt.Printf("detected %d/%d Code Red II sources\n", len(sources), instances)
	if len(sources) != instances {
		os.Exit(1)
	}
}
