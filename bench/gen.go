package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// delivery is one generator-known malicious delivery: Src sent an
// exploit payload to Dst.
type delivery struct {
	Src netip.Addr `json:"src"`
	Dst netip.Addr `json:"dst"`
}

// truth is what the generator knows about a trace — the ground truth
// every job's report is checked against.
type truth struct {
	Packets    int    `json:"packets"`
	Bytes      int64  `json:"bytes"` // pcap file size
	SHA256     string `json:"sha256"`
	DurationUS uint64 `json:"duration_us"`

	// Deliveries are the malicious (attacker, victim) pairs; Stages is
	// the kill-chain stage each attacker must reach ("PROPAGATION"
	// when one of its victims attacks in turn, else "EXPLOIT").
	Deliveries []delivery            `json:"deliveries"`
	Stages     map[netip.Addr]string `json:"stages"`

	// BenignSessions counts the sessions opened by sources that never
	// attack; none of them may be alerted.
	BenignSessions int `json:"benign_sessions"`
}

// deriveTruth reads the ground truth off the generated packets using
// only what the generators guarantee: an attacker probes dark address
// space before it delivers, and deliveries land in the workload's
// victim range.
func deriveTruth(pkts []*netpkt.Packet, victims netip.Prefix) *truth {
	attackers := make(map[netip.Addr]bool)
	for _, p := range pkts {
		if traffic.DarkNet.Contains(p.DstIP) {
			attackers[p.SrcIP] = true
		}
	}
	tr := &truth{Packets: len(pkts), Stages: make(map[netip.Addr]string)}
	if len(pkts) > 0 {
		tr.DurationUS = pkts[len(pkts)-1].TimestampUS - pkts[0].TimestampUS
	}
	// The first packet of a conversation names its initiator, so a
	// victim's reply to its attacker is never taken for a delivery.
	initiator := make(map[netpkt.FlowKey]netip.Addr)
	seen := make(map[delivery]bool)
	for _, p := range pkts {
		conv := p.Flow().Canonical()
		first, known := initiator[conv]
		if !known {
			first = p.SrcIP
			initiator[conv] = first
			if !attackers[p.SrcIP] && !attackers[p.DstIP] {
				tr.BenignSessions++
			}
		}
		d := delivery{p.SrcIP, p.DstIP}
		if first == p.SrcIP && attackers[p.SrcIP] && len(p.Payload) > 0 && victims.Contains(p.DstIP) && !seen[d] {
			seen[d] = true
			tr.Deliveries = append(tr.Deliveries, d)
		}
	}
	delivers := make(map[netip.Addr]bool)
	for _, d := range tr.Deliveries {
		delivers[d.Src] = true
	}
	for _, d := range tr.Deliveries {
		if tr.Stages[d.Src] == "" {
			tr.Stages[d.Src] = "EXPLOIT"
		}
		if delivers[d.Dst] {
			tr.Stages[d.Src] = "PROPAGATION"
		}
	}
	return tr
}

// writeTrace writes the packets as a classic pcap file and returns its
// size and sha256.
func writeTrace(path string, pkts []*netpkt.Packet) (int64, string, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	pw, err := netpkt.NewPcapWriter(bw)
	if err != nil {
		return 0, "", err
	}
	for _, p := range pkts {
		if err := pw.WritePacket(p); err != nil {
			return 0, "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, "", err
	}
	// Synced, so that on a disk-backed scratch directory the kernel's
	// write-back of the trace is paid here, in set-up, and does not
	// compete with the timed jobs that follow.
	if err := f.Sync(); err != nil {
		return 0, "", err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, "", err
	}
	return st.Size(), hex.EncodeToString(h.Sum(nil)), f.Close()
}

const (
	traceFile = "trace.pcap"
	truthFile = "truth.json"
)

// generateInto is the set-up step, run in a child process (see
// generateInChild): it renders the workload's trace into dir with its
// ground truth, and for the federation workload also the sensors'
// evidence checkpoints.
func generateInto(w *workload, seed int64, scale float64, dir string) error {
	pkts := w.generate(seed, scale)
	tr := deriveTruth(pkts, w.victims)
	var err error
	if tr.Bytes, tr.SHA256, err = writeTrace(filepath.Join(dir, traceFile), pkts); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	sort.Slice(tr.Deliveries, func(i, j int) bool {
		a, b := tr.Deliveries[i], tr.Deliveries[j]
		if a.Src != b.Src {
			return a.Src.Less(b.Src)
		}
		return a.Dst.Less(b.Dst)
	})
	if err := writeJSONFile(filepath.Join(dir, truthFile), tr); err != nil {
		return err
	}
	if w.fed {
		return generateCheckpoints(w, pkts, dir)
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
