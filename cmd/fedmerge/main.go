// Command fedmerge folds N sensors' incident-evidence exports into
// one deterministic incident report — the paper's "further action"
// taken at network scale, where semantic detections from many tap
// points converge on the offending sources.
//
// Usage:
//
//	fedmerge [-json] [-skip-corrupt] [-o merged.evidence] a.evidence b.evidence ...
//
// Each input is an evidence export written by `semnids -export` (or a
// durable-sink segment, or a previous fedmerge -o output — merges
// compose). The merge is a join (fed.Merge): commutative, associative
// and idempotent on wire bytes, provenance included, so feeding the
// same export twice, merging in any order, or merging earlier -o
// outputs of any grouping of the inputs yields byte-identical output;
// every evidence record keeps the sensor IDs that observed it,
// carried up each propagation chain to every attacker it convicts, so
// a federated incident stays traceable to its witnesses. All inputs
// must share the correlation parameters (fan-out window, threshold,
// evidence caps) they were gathered under.
//
// The incident report prints as the kill-chain table (or JSONL with
// -json); -o additionally writes the merged evidence export for
// further federation.
//
// With -skip-corrupt, inputs that fail to read or to merge (corrupt,
// truncated before their first committed checkpoint, or gathered under
// skewed correlation parameters) are warned about on stderr and
// skipped instead of aborting the merge — the degraded-operations mode
// for folding a directory of sink segments where a crashed sensor may
// have left a partial tail. The run then exits 3 (not 0) with a
// summary of what was skipped, so automation notices the report is
// missing witnesses even though it was produced.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"semnids/internal/fed"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/report"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut     = flag.Bool("json", false, "emit merged incidents as JSONL instead of the table")
		outPath     = flag.String("o", "", "write the merged evidence export to this file")
		quiet       = flag.Bool("q", false, "suppress the incident report (with -o: merge only)")
		skipCorrupt = flag.Bool("skip-corrupt", false, "warn and skip unreadable or unmergeable inputs instead of aborting (exit 3 if any were skipped)")
	)
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "fedmerge: no evidence exports given")
		flag.Usage()
		return 2
	}

	var merged *incident.EvidenceExport
	var skipped []string
	for _, path := range paths {
		next, err := readExport(path)
		if err == nil {
			// The first input folds like any other, into an empty export.
			into := merged
			if into == nil {
				into = &incident.EvidenceExport{Params: next.Params}
			}
			if m, merr := fed.Merge(into, next); merr != nil {
				err = fmt.Errorf("%s: %w", path, merr)
			} else {
				merged = m
				continue
			}
		}
		if !*skipCorrupt {
			return fail(err)
		}
		fmt.Fprintln(os.Stderr, "fedmerge: warning: skipping", err)
		skipped = append(skipped, path)
	}
	if merged == nil {
		return fail(fmt.Errorf("all %d inputs skipped, nothing to merge", len(skipped)))
	}

	if !*quiet {
		incidents, err := incident.DeriveIncidents(merged)
		if err != nil {
			return fail(err)
		}
		if *jsonOut {
			if err := report.WriteIncidentsJSON(os.Stdout, incidents); err != nil {
				return fail(err)
			}
		} else {
			fmt.Printf("sensors: %s  sources: %d\n\n",
				strings.Join(merged.Sensors, ","), len(merged.Sources))
			if err := report.WriteIncidents(os.Stdout, incidents); err != nil {
				return fail(err)
			}
		}
		// Lineage records (sensors run with -lineage) merge like all other
		// evidence; when present, render the federated ancestry forest —
		// commutativity means it is the forest a solo sensor would print.
		if len(merged.Lineage) > 0 {
			trees := lineage.Trace(merged.Lineage)
			if *jsonOut {
				if err := report.WriteAncestryJSON(os.Stdout, trees); err != nil {
					return fail(err)
				}
			} else {
				fmt.Println()
				if err := report.WriteAncestry(os.Stdout, trees); err != nil {
					return fail(err)
				}
			}
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(err)
		}
		err = fed.WriteExport(f, merged)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "fedmerge: skipped %d of %d inputs: %s\n",
			len(skipped), len(paths), strings.Join(skipped, ", "))
		return 3
	}
	return 0
}

func readExport(path string) (*incident.EvidenceExport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ex, err := fed.ReadExport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ex, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fedmerge:", err)
	return 1
}
