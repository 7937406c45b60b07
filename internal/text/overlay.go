package text

import (
	"slices"

	"wikisearch/internal/graph"
)

// Overlay is an immutable patch over a base Index for live graph mutations.
// It holds fully merged posting lists for exactly the terms whose node sets
// changed, so a lookup through the overlay is a single map probe with no
// per-query merging, and terms outside the delta fall through to the base
// index untouched. An Overlay is built once per epoch publication and never
// modified afterwards; concurrent readers need no synchronization.
type Overlay struct {
	terms     map[string][]graph.NodeID // merged posting per affected term; empty slice = term now matches nothing
	newTerms  int                       // affected terms absent from the base index
	emptied   int                       // base terms whose posting became empty
	postDelta int                       // (term, node) pair count delta vs the base
	maxLen    int                       // longest merged posting in the overlay
}

// Postings returns the merged posting list for term if the overlay covers
// it. ok=false means the term is unaffected and the base index answers.
func (o *Overlay) Postings(term string) ([]graph.NodeID, bool) {
	p, ok := o.terms[term]
	return p, ok
}

// NumAffected returns how many terms the overlay covers.
func (o *Overlay) NumAffected() int { return len(o.terms) }

// TermsDelta returns the adjustment to the base vocabulary size: terms the
// delta introduced minus base terms it emptied.
func (o *Overlay) TermsDelta() int { return o.newTerms - o.emptied }

// PostingsDelta returns the adjustment to the base (term, node) pair count.
func (o *Overlay) PostingsDelta() int { return o.postDelta }

// MaxPostingLen returns the longest posting among affected terms. The
// effective maximum of an overlaid index is max(base, overlay) — a best
// effort that can overstate when the delta shrank the base's longest list;
// compaction restores the exact statistic.
func (o *Overlay) MaxPostingLen() int { return o.maxLen }

// NodeTerms returns the de-duplicated normalized term set of one node's
// label and description — the unit the index (and its overlays) are built
// from.
func NodeTerms(label, desc string) map[string]struct{} {
	set := make(map[string]struct{}, 8)
	for _, t := range Normalize(label) {
		set[t] = struct{}{}
	}
	for _, t := range Normalize(desc) {
		set[t] = struct{}{}
	}
	return set
}

// OverlayBuilder accumulates per-node text changes and derives an Overlay
// against a base index. It is single-writer, like graph.DeltaBuilder.
//
// Changes are last-write-wins per (term, node): a later NodeRetext of the
// same node (with the previous call's new text as its old text) overrides
// the earlier diff, so chained retexts compose to the final-vs-base diff.
// Build is incremental: it re-merges only the terms marked since the last
// Build, applying their pending changes to the previous Overlay's merged
// list, and shares every other term's list with the previous Overlay.
type OverlayBuilder struct {
	base *Index
	// prev is the Overlay the last Build returned (nil before the first).
	prev *Overlay
	// pending[term][v] records whether v's text contains term, for the
	// (term, node) pairs marked since the last Build.
	pending map[string]map[graph.NodeID]bool
}

// NewOverlayBuilder returns an empty builder over base.
func NewOverlayBuilder(base *Index) *OverlayBuilder {
	return &OverlayBuilder{
		base:    base,
		pending: make(map[string]map[graph.NodeID]bool),
	}
}

func (b *OverlayBuilder) mark(term string, v graph.NodeID, present bool) {
	s := b.pending[term]
	if s == nil {
		s = make(map[graph.NodeID]bool, 4)
		b.pending[term] = s
	}
	s[v] = present
}

// NodeAdded records a node appended past the base graph with the given text.
func (b *OverlayBuilder) NodeAdded(v graph.NodeID, label, desc string) {
	for t := range NodeTerms(label, desc) {
		b.mark(t, v, true)
	}
}

// NodeRetext records a base node whose label/description changed. Terms in
// both old and new text keep their prior state; the rest flip membership.
func (b *OverlayBuilder) NodeRetext(v graph.NodeID, oldLabel, oldDesc, newLabel, newDesc string) {
	oldT := NodeTerms(oldLabel, oldDesc)
	newT := NodeTerms(newLabel, newDesc)
	for t := range oldT {
		if _, keep := newT[t]; !keep {
			b.mark(t, v, false)
		}
	}
	for t := range newT {
		if _, had := oldT[t]; !had {
			b.mark(t, v, true)
		}
	}
}

// Empty reports whether no text changes were recorded.
func (b *OverlayBuilder) Empty() bool { return b.prev == nil && len(b.pending) == 0 }

// Build merges the accumulated changes against the base index into an
// immutable Overlay. The builder may keep accumulating afterwards; the
// returned Overlay shares nothing mutable with it (merged lists are never
// written once built, so consecutive Overlays share them freely).
func (b *OverlayBuilder) Build() *Overlay {
	if len(b.pending) == 0 && b.prev != nil {
		return b.prev
	}
	ov := &Overlay{}
	if p := b.prev; p != nil {
		ov.terms = make(map[string][]graph.NodeID, len(p.terms)+len(b.pending))
		for t, merged := range p.terms {
			ov.terms[t] = merged
		}
		ov.newTerms, ov.emptied, ov.postDelta = p.newTerms, p.emptied, p.postDelta
	} else {
		ov.terms = make(map[string][]graph.NodeID, len(b.pending))
	}
	for t, changes := range b.pending {
		base := b.base.LookupTerm(t)
		old, had := ov.terms[t]
		if had {
			ov.count(base, old, -1)
		} else {
			old = base
		}
		merged := applyChanges(old, changes)
		ov.count(base, merged, +1)
		ov.terms[t] = merged
	}
	for _, merged := range ov.terms {
		ov.maxLen = max(ov.maxLen, len(merged))
	}
	b.prev = ov
	b.pending = make(map[string]map[graph.NodeID]bool)
	return ov
}

// count adds (sign +1) or removes (sign -1) one term's contribution to the
// overlay's vocabulary and posting-count deltas against the base.
func (o *Overlay) count(base, merged []graph.NodeID, sign int) {
	if base == nil && len(merged) > 0 {
		o.newTerms += sign
	}
	if base != nil && len(merged) == 0 {
		o.emptied += sign
	}
	o.postDelta += sign * (len(merged) - len(base))
}

// applyChanges returns the sorted posting old with each v in changes
// removed, then re-inserted if changes[v] is true. old is not modified;
// runs between changed nodes are copied in bulk.
func applyChanges(old []graph.NodeID, changes map[graph.NodeID]bool) []graph.NodeID {
	keys := make([]graph.NodeID, 0, len(changes))
	for v := range changes {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	merged := make([]graph.NodeID, 0, len(old)+len(keys))
	i := 0
	for _, v := range keys {
		j, found := slices.BinarySearch(old[i:], v)
		merged = append(merged, old[i:i+j]...)
		i += j
		if found {
			i++
		}
		if changes[v] {
			merged = append(merged, v)
		}
	}
	return append(merged, old[i:]...)
}
