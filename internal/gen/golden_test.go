package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"wikisearch/internal/graph"
)

// goldenDigests pins every byte Generate produces for the built-in presets.
// A change to the generator, the vocabulary sampler or graph.Builder.Build
// that alters any label, description, relation name, CSR array or KB list
// changes a digest; such a change is a new dataset, not an optimisation.
var goldenDigests = map[string]string{
	"tiny-sim":     "4e4e8dd294d6e18000af03eb2d06c58305b05ae5b1abf0e1674c4e026c3e8fe6",
	"wiki2017-sim": "c045fe86edb26f1b7fd72753d2baab37919a2ae57cc401019ec41637af846f2a",
	"wiki2018-sim": "1f5733f3ca4cd451ec967d2571be4e044fb635b0a995eae3d43ef8a81cc3ee73",
}

// kbDigest hashes a generated KB: labels, descriptions, relation names,
// both CSR directions, and the Classes/Topics/Venues/Planted lists, each
// length-prefixed so no two different KBs share a byte stream. Offsets are
// hashed as 8-byte words and relation ids as 4-byte words, the widths the
// graph held when the digests were taken, so a narrower in-memory layout
// hashes the same bytes.
func kbDigest(kb *KB) string {
	h := sha256.New()
	g := kb.Graph
	p := g.Parts()
	labels, descs := make([]string, g.NumNodes()), make([]string, g.NumNodes())
	for v := range labels {
		labels[v], descs[v] = g.Label(graph.NodeID(v)), g.Description(graph.NodeID(v))
	}
	for _, ss := range [][]string{labels, descs, p.RelNames} {
		putStrings(h, ss)
	}
	putOffsets(h, p.OutOff)
	putI32s(h, p.OutDst)
	putRels(h, p.OutRel)
	putOffsets(h, p.InOff)
	putI32s(h, p.InSrc)
	putRels(h, p.InRel)
	putI32s(h, kb.Classes)
	putI32s(h, kb.Topics)
	putI32s(h, kb.Venues)
	putLen(h, len(kb.Planted))
	for _, p := range kb.Planted {
		putStrings(h, []string{p.ID})
		putStrings(h, p.Keywords)
		putI32s(h, p.Cores)
		putI32s(h, []graph.NodeID{p.Hub})
		putI32s(h, p.Decoys)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putLen(h hash.Hash, n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	h.Write(b[:])
}

func putStrings(h hash.Hash, ss []string) {
	putLen(h, len(ss))
	for _, s := range ss {
		putLen(h, len(s))
		h.Write([]byte(s))
	}
}

func putI32s(h hash.Hash, xs []int32) {
	putLen(h, len(xs))
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	h.Write(b)
}

func putOffsets(h hash.Hash, xs []uint32) {
	putLen(h, len(xs))
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	h.Write(b)
}

func putRels(h hash.Hash, rs []graph.RelID) {
	xs := make([]int32, len(rs))
	for i, r := range rs {
		xs[i] = int32(r)
	}
	putI32s(h, xs)
}

// TestGenerateDeterministic checks every preset against its golden digest:
// generation is a pure function of the config, and the bytes it produces
// are pinned across changes to the generator and the CSR builder.
func TestGenerateDeterministic(t *testing.T) {
	for _, cfg := range []Config{TinySim(), Wiki2017Sim(), Wiki2018Sim()} {
		t.Run(cfg.Name, func(t *testing.T) {
			if cfg.Name == "wiki2018-sim" && testing.Short() {
				t.Skip("wiki2018-sim is skipped in -short mode")
			}
			if got, want := kbDigest(Generate(cfg)), goldenDigests[cfg.Name]; got != want {
				t.Fatalf("digest %s, want %s", got, want)
			}
		})
	}
}
