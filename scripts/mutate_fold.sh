#!/usr/bin/env bash
# Mutation check for the evidence merge, the aggregator's live fold,
# its delta checkpoints and the evidence codec (DESIGN 9 and 10): each
# mutant below removes one thing the fold suites exist to notice —
# incident's TestFold* (the Fold against the re-derivation oracle, and
# the join laws), transport's TestFoldDifferential* (the aggregator
# against the fed.Merge chain, in memory and on disk), fed's
# TestDeltaChain* and TestStateSink* (the base+delta segment reader and
# writer), and fed's TestCodec* and FuzzCanonicalDecode's corpus (the
# codec against encoding/json) — in a scratch copy of the tree, and the
# suites must fail on it. A mutant
# that survives, or an anchor line that no longer matches, fails the
# script.
#
#   bash scripts/mutate_fold.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
(cd "$root" && tar --exclude=.git --exclude=.bench_build --exclude=bench -cf - .) | tar -xf - -C "$work"
suites='TestFold|TestDeltaChain|TestStateSink|TestCodec|FuzzCanonicalDecode'

# mutant NAME FILE SED-EXPRESSION
mutant() {
	local name="$1" file="$work/$2" expr="$3"
	cp "$file" "$file.orig"
	sed -i "$expr" "$file"
	if cmp -s "$file" "$file.orig"; then
		echo "mutate_fold: $name: anchor not found in $2" >&2
		exit 1
	fi
	if (cd "$work" && go test -count=1 -run "$suites" ./internal/incident/ ./internal/fed/ ./internal/fed/transport/ >"$work/out.txt" 2>&1); then
		echo "mutate_fold: $name: the fold suites passed on the mutant" >&2
		exit 1
	fi
	if ! grep -qE -- "--- FAIL: ($suites)" "$work/out.txt"; then
		echo "mutate_fold: $name: the mutant did not build or the suite did not run:" >&2
		cat "$work/out.txt" >&2
		exit 1
	fi
	echo "mutate_fold: $name: killed by $(grep -oE -- "--- FAIL: ($suites)[A-Za-z]*" "$work/out.txt" | sort -u | cut -d' ' -f3 | paste -sd, -)"
	mv "$file.orig" "$file"
}

# An attacker escalated by another sensor's victim evidence is not
# marked changed, so its cached record and frame go stale.
mutant "escalate without dirty-marking" internal/incident/correlator.go \
	's/^\t\t\tc\.track\.changed(attacker)$/\t\t\t_ = attacker/'

# A changed source keeps the frame it was first encoded with, so the
# checkpoint on disk lags the state.
mutant "dirty record not re-encoded" internal/fed/state.go \
	's/^\t\tst\.src\.set(src, src, \(.*\))$/\t\tif st.src.byKey[src] == nil { st.src.set(src, src, \1) }/'

# Frames enter the memo when decoded, before the push is accepted, so
# a refused push makes its frames look folded.
mutant "memo filled before the commit" internal/fed/state.go \
	'/decodeNewest(st)$/,/^\tif st\.fold == nil {$/s/^\tif st\.fold == nil {$/\tst.remember(in.keys)\n&/'

# An attacker whose sensor set grew is not re-derived, so provenance
# stops one link up the propagation chain and depends on merge order.
mutant "grown attackers not queued" internal/incident/evidence.go \
	's/^\t\t\t\ttodo = append(todo, a)$/\t\t\t\t_ = a/'

# A record a fold changed is not marked pending, so the delta after it
# leaves the record out and the checkpoint on disk lags the state.
mutant "changed record not marked pending" internal/fed/state.go \
	's/^\tif !r\.pending {$/\tif !r.pending \&\& r.frame == nil {/'

# The reader links a delta to the committed group before it whatever
# its seq, so a delta after a lost group folds over the hole.
mutant "reader ignores seq contiguity" internal/fed/wirefmt.go \
	's/ || seg\.groups\[k-1\]\.open\.Seq+1 != seg\.groups\[k\]\.open\.Seq {$/ {/'

# The sink asks for a delta when it opens a segment, so the segment's
# first group extends nothing and the segment reads as empty.
mutant "delta as a new segment's first group" internal/fed/sink.go \
	's/^\tsn, err := s\.cfg\.source(rotate)$/\tsn, err := s.cfg.source(false)/'

# The encoder writes '<', '>' and '&' as they are, so its bytes are no
# longer what encoding/json writes.
mutant "encoder skips HTML escaping" internal/fed/codec.go \
	's/^\t\t\tif htmlSafe(c) {$/\t\t\tif htmlSafe(c) || c == '"'"'<'"'"' || c == '"'"'>'"'"' || c == '"'"'\&'"'"' {/'

# An omitempty field is written when it is zero.
mutant "last_seen_us written when zero" internal/fed/codec.go \
	's/^\tb = appendOptUint(b, `,"last_seen_us":`, s\.LastSeenUS)$/\tb = strconv.AppendUint(append(b, `,"last_seen_us":`...), s.LastSeenUS, 10)/'

# The decoder stops at the closing brace, so it accepts a document with
# bytes after it that encoding/json refuses or the encoder never writes.
mutant "decoder accepts trailing bytes" internal/fed/codec.go \
	's/^\treturn d\.ok \&\& d\.i == len(d\.b)$/\treturn d.ok/'
