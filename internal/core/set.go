package core

import "slices"

// SortedUnion returns the sorted, duplicate-free union of two string
// sets — the one form provenance sets (sensor IDs) take on every
// record. The inputs need not be sorted and are not modified; the
// result never shares memory with them, and is nil when both are
// empty.
func SortedUnion(a, b []string) []string {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := append(append(make([]string, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}
