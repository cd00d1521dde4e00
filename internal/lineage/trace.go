package lineage

import (
	"net/netip"
	"sort"

	"semnids/internal/core"
)

// TreeNode is one host in an ancestry tree.
type TreeNode struct {
	// Host is the node's address. The root is the family's patient
	// zero (a host that delivered the payload but was never delivered
	// to); every other node was infected by its parent.
	Host netip.Addr `json:"host"`

	// InfectedAtUS is the trace time of the node's first witnessed
	// delivery (for the root: its first witnessed emission).
	InfectedAtUS uint64 `json:"infected_at_us"`

	// Via is the exact fingerprint of the payload variant that
	// infected this node (zero for the root).
	Via core.Fingerprint `json:"via,omitempty"`

	// Confidence scores the edge to the parent (0 for the root):
	// 0.9 when the child re-emitted the family payload (the infection
	// demonstrably took), plus 0.05 each when the delivering variant's
	// template/statement symbols match the child's re-emission — the
	// IPP-style corroboration that delivery and re-emission share a
	// decoder lineage; 0.6 for leaf deliveries (witnessed delivery,
	// no echo).
	Confidence float64 `json:"confidence,omitempty"`

	// Children are the hosts this node infected, sorted by address.
	Children []TreeNode `json:"children,omitempty"`
}

// Tree is one reconstructed infection tree: all hosts traced to one
// patient zero within one payload family.
type Tree struct {
	// Tail identifies the payload family (the shared decoded-tail
	// fingerprint all the family's variants converge on).
	Tail core.Fingerprint `json:"tail"`

	Root TreeNode `json:"root"`

	// Nodes and MaxDepth summarize the tree (root depth 0).
	Nodes    int `json:"nodes"`
	MaxDepth int `json:"max_depth"`
}

// Edges counts parent→child links in the tree.
func (t Tree) Edges() int { return t.Nodes - 1 }

// Trace reconstructs ancestry trees from a canonical observation set.
// Pure and deterministic: the output depends only on the set content,
// so federated merges and solo sensors render identical forests.
//
// Parent identification per payload family (shared Tail): a host's
// parent is the source of the earliest witnessed delivery to it — the
// first infection wins, exactly the IPP tracer's "identify the parent
// of each descendant" step with the decoded tail as the unalterable
// symbol. Hosts that delivered family payloads but were never
// delivered to are roots. No edge is ever invented: every edge cites a
// witnessed delivery (its Via fingerprint), so a benign suite — which
// produces no observations — yields no trees, and unrelated payloads
// (different tails) can never link.
func Trace(obs []Observation) []Tree {
	byTail := make(map[core.Fingerprint][]*Observation)
	for i := range obs {
		o := &obs[i]
		if o.Tail.IsZero() || !o.Src.IsValid() || !o.Dst.IsValid() {
			continue
		}
		byTail[o.Tail] = append(byTail[o.Tail], o)
	}
	tails := make([]core.Fingerprint, 0, len(byTail))
	for t := range byTail {
		tails = append(tails, t)
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Less(tails[j]) })

	var trees []Tree
	for _, tail := range tails {
		trees = append(trees, traceFamily(tail, byTail[tail])...)
	}
	return trees
}

// traceFamily builds the forest of one payload family.
func traceFamily(tail core.Fingerprint, group []*Observation) []Tree {
	sort.Slice(group, func(i, j int) bool { return witnessLess(group[i], group[j]) })

	// First witnessed delivery to each host, and first witnessed
	// emission by each host (group is witness-sorted, so first hit
	// wins deterministically).
	delivery := make(map[netip.Addr]*Observation)
	emission := make(map[netip.Addr]*Observation)
	hostSet := make(map[netip.Addr]bool)
	for _, o := range group {
		hostSet[o.Src] = true
		hostSet[o.Dst] = true
		if delivery[o.Dst] == nil {
			delivery[o.Dst] = o
		}
		if emission[o.Src] == nil {
			emission[o.Src] = o
		}
	}
	hosts := make([]netip.Addr, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Less(hosts[j]) })

	children := make(map[netip.Addr][]netip.Addr)
	var roots []netip.Addr
	for _, h := range hosts {
		if d := delivery[h]; d != nil && d.Src != h {
			children[d.Src] = append(children[d.Src], h)
		} else {
			roots = append(roots, h)
		}
	}

	// Parent pointers derive from witnessed deliveries, which in
	// adversarial or clock-skewed data can form cycles (A's first
	// delivery from B, B's first from A). Promote the smallest
	// unreached host to a root until every host is covered — a
	// deterministic tie-break, never a silent drop.
	reached := make(map[netip.Addr]bool)
	var mark func(h netip.Addr)
	mark = func(h netip.Addr) {
		if reached[h] {
			return
		}
		reached[h] = true
		for _, c := range children[h] {
			mark(c)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	for _, h := range hosts { // sorted: smallest unreached first
		if !reached[h] {
			roots = append(roots, h)
			mark(h)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Less(roots[j]) })

	built := make(map[netip.Addr]bool)
	var build func(h netip.Addr, depth int, nodes, maxDepth *int) TreeNode
	build = func(h netip.Addr, depth int, nodes, maxDepth *int) TreeNode {
		built[h] = true
		*nodes++
		if depth > *maxDepth {
			*maxDepth = depth
		}
		n := TreeNode{Host: h}
		if d := delivery[h]; d != nil && d.Src != h && built[d.Src] {
			n.InfectedAtUS = d.FirstUS
			n.Via = d.Exact
			n.Confidence = edgeConfidence(d, emission[h])
		} else if e := emission[h]; e != nil {
			n.InfectedAtUS = e.FirstUS
		} else if d != nil {
			n.InfectedAtUS = d.FirstUS
		}
		for _, c := range children[h] {
			if built[c] {
				continue // cycle edge already broken by root promotion
			}
			n.Children = append(n.Children, build(c, depth+1, nodes, maxDepth))
		}
		return n
	}

	var trees []Tree
	for _, r := range roots {
		if built[r] {
			continue
		}
		t := Tree{Tail: tail}
		t.Root = build(r, 0, &t.Nodes, &t.MaxDepth)
		trees = append(trees, t)
	}
	return trees
}

// edgeConfidence scores one infection edge from its witnessed delivery
// and the child's first re-emission (nil when the child never
// re-emitted).
// Scores accumulate in integer hundredths so the float (and its JSON
// rendering) is the exact nearest-double of 0.60/0.90/0.95/1.00 —
// never 0.9500000000000001.
func edgeConfidence(delivery, echo *Observation) float64 {
	if echo == nil {
		return 0.6
	}
	c := 90
	if delivery.TemplateSym != 0 && delivery.TemplateSym == echo.TemplateSym {
		c += 5
	}
	if delivery.StmtsSym != 0 && delivery.StmtsSym == echo.StmtsSym {
		c += 5
	}
	return float64(c) / 100
}
