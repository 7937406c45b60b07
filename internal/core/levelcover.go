package core

import "math/bits"

// levelCover applies the keyword-co-occurrence level-cover strategy (§V-C)
// to the extraction in sc and leaves the verdict in sc.keep, indexed by
// extraction-local node.
//
// Keyword nodes are classified into levels by the number of query keywords
// they contain; the Central Node is always at the top. Walking levels from
// most-contributing down, a level's nodes are judged against the coverage
// accumulated from *previous* levels only — so nodes never cause pruning of
// nodes within their own level, preserving as many keyword nodes as
// possible. A keyword node is pruned when every keyword it contains is
// already covered; once coverage is complete, all remaining lower levels
// are pruned. Finally the hitting paths that served only pruned keyword
// nodes are dropped: a path node survives iff it is reachable from a kept
// keyword node (or is the Central Node or on a kept node's downstream path).
//
// Both halves are linear in the extraction: the levels come from a counting
// sort on containment count, the reachability pass walks a child list
// counting-sorted from the edge records.
//
//wikisearch:hotpath
func (sc *tdScratch) levelCover(all uint64) {
	n := len(sc.ids)
	sc.keep = fit(sc.keep, n)
	keep := sc.keep

	// Classify keyword nodes (nodes containing ≥1 query keyword) by
	// containment count, most keywords first. The Central Node seeds
	// coverage unconditionally and is not classified.
	var at [MaxKeywords + 1]int32 // by containment count
	nkw := 0
	for _, m := range sc.has[1:] {
		if m != 0 {
			at[bits.OnesCount64(m)]++
			nkw++
		}
	}
	for c, sum := MaxKeywords, int32(0); c >= 1; c-- {
		at[c], sum = sum, sum+at[c] // where level c starts: after every higher level
	}
	sc.kws = fit(sc.kws, nkw)
	kws := sc.kws
	for l, m := range sc.has[1:] {
		if m != 0 {
			c := bits.OnesCount64(m)
			kws[at[c]] = int32(l + 1)
			at[c]++ // ends as where level c ends
		}
	}

	keep[0] = true
	stack := sc.stack[:0]
	stack = append(stack, 0)
	covered := sc.has[0]
	for lo := 0; lo < nkw && covered != all; {
		hi := int(at[bits.OnesCount64(sc.has[kws[lo]])])
		level := covered
		for _, l := range kws[lo:hi] {
			if m := sc.has[l]; m&^covered != 0 { // contributes an uncovered keyword
				keep[l] = true
				stack = append(stack, l)
				level |= m
			}
		}
		covered = level
		lo = hi
	}

	// Keep path nodes reachable from kept keyword nodes (and the Central
	// Node) along expansion steps parent → child — everything else served
	// only pruned keyword nodes.
	sc.childOff = fit(sc.childOff, n+2)
	off := sc.childOff
	for i := range sc.edges {
		off[sc.edges[i].from+2]++
	}
	for l := 0; l < n; l++ {
		off[l+2] += off[l+1]
	}
	// off[l+1] is where l's children start; filling advances it to where
	// they end, which is where l+1's start: off becomes the CSR offsets.
	sc.child = fit(sc.child, len(sc.edges))
	for i := range sc.edges {
		e := &sc.edges[i]
		sc.child[off[e.from+1]] = e.to
		off[e.from+1]++
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range sc.child[off[l]:off[l+1]] {
			if !keep[c] {
				keep[c] = true
				stack = append(stack, c)
			}
		}
	}
	sc.stack = stack
}
