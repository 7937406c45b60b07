// Package gen generates the synthetic Wikidata-like knowledge bases this
// reproduction uses in place of the paper's wiki2017/wiki2018 dumps (see the
// substitution table in DESIGN.md), plus the query workloads (the paper's
// AAAI'14 keyword lists) and the planted relevance used by the
// effectiveness experiments in place of human judgment.
//
// Everything is deterministic in the configured seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
)

// baseVocab is the head of the keyword vocabulary: real CS/IR words so the
// Table V queries and all examples read naturally. Zipf sampling makes
// these the frequent keywords, mirroring the kwf spreads of Table V.
var baseVocab = []string{
	// Table V query words (Q1–Q10; the deliberately rare Q11 words live in
	// rareTail below).
	"xml", "relational", "search", "database", "indexing", "ranking",
	"bayesian", "inference", "markov", "network", "statistical",
	"learning", "sql", "rdf", "knowledge", "base", "supervised",
	"gradient", "descent", "machine", "translation", "transfer",
	"auxiliary", "data", "retrieval", "text", "classification", "sharing",
	"mining", "medicine", "technique", "natural", "language", "processing",
	// Broader CS filler.
	"graph", "keyword", "query", "parallel", "engine", "system",
	"distributed", "storage", "optimization", "neural", "deep",
	"clustering", "regression", "semantic", "ontology", "entity",
	"linking", "embedding", "vector", "matrix", "tensor", "kernel",
	"sampling", "probabilistic", "logic", "reasoning", "planning",
	"vision", "speech", "recognition", "generation", "summarization",
	"recommendation", "filtering", "collaborative", "privacy",
	"security", "cryptography", "compression", "streaming", "temporal",
	"spatial", "crowdsourcing", "annotation", "benchmark", "evaluation",
	"scalable", "efficient", "robust", "adaptive", "dynamic", "static",
	"incremental", "approximate", "exact", "heuristic", "algorithm",
	"complexity", "bound", "proof", "model", "framework", "architecture",
	"protocol", "consensus", "replication", "transaction", "concurrency",
	"scheduling", "caching", "partitioning", "sharding", "compiler",
	"runtime", "virtualization", "container", "cloud", "edge", "mobile",
	"sensor", "wireless", "energy", "hardware", "accelerator", "gpu",
	"memory", "cache", "latency", "throughput", "bandwidth", "workload",
}

// rareTail words always take the lowest Zipf ranks, reproducing Table V's
// Q11: keywords with tiny frequency and little ambiguity.
var rareTail = []string{"wikidata", "freebase", "yahoo", "neo4j", "sparql"}

// syllables for synthetic tail words.
var (
	onsets = []string{"b", "br", "c", "cr", "d", "dr", "f", "g", "gl", "k", "l", "m", "n", "p", "pr", "qu", "r", "s", "st", "t", "tr", "v", "z"}
	nuclei = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "ou"}
	codas  = []string{"", "l", "n", "r", "s", "t", "x", "ck", "nd", "rm"}
)

// Vocab is a keyword vocabulary with Zipf-distributed sampling.
type Vocab struct {
	words []string
	// cum holds the cumulative Zipf weights; cum[len(cum)-1] is the total.
	cum []float64
	// guide is an index over cum: a draw x falls in bucket
	// j = int(x*guideScale), and guide[j] is the first word whose cum
	// reaches that bucket's lower edge j/guideScale, so the word x picks
	// lies in [guide[j], guide[j+1]].
	guide      []int32
	guideScale float64
}

// NewVocab builds a vocabulary of the given size: the real base words first,
// then synthetic filler words, with Zipf(s≈1.07) rank weights — the shape of
// natural-language keyword frequencies (the paper's 5M-keyword vocabulary is
// heavily skewed).
func NewVocab(size int, rng *rand.Rand) *Vocab {
	if size < len(baseVocab)+len(rareTail) {
		size = len(baseVocab) + len(rareTail)
	}
	words := make([]string, 0, size)
	words = append(words, baseVocab...)
	seen := make(map[string]struct{}, size)
	for _, w := range words {
		seen[w] = struct{}{}
	}
	for _, w := range rareTail {
		seen[w] = struct{}{}
	}
	for len(words) < size-len(rareTail) {
		w := synthWord(rng)
		if _, dup := seen[w]; dup {
			w = fmt.Sprintf("%s%d", w, len(words))
		}
		seen[w] = struct{}{}
		words = append(words, w)
	}
	words = append(words, rareTail...)
	v := &Vocab{words: words, cum: make([]float64, len(words))}
	total := 0.0
	for i := range words {
		total += 1.0 / math.Pow(float64(i+1), 1.07)
		v.cum[i] = total
	}
	// One bucket per word; guide has two extra entries so guide[j+1] exists
	// for the last bucket and for a product x*guideScale rounded up to it.
	v.guideScale = float64(len(words)) / total
	v.guide = make([]int32, len(words)+2)
	i := 0
	for j := range v.guide {
		edge := float64(j) / v.guideScale
		for i < len(v.cum)-1 && v.cum[i] < edge {
			i++
		}
		v.guide[j] = int32(i)
	}
	return v
}

// Size returns the number of words.
func (v *Vocab) Size() int { return len(v.words) }

// Word returns word i (rank order: smaller i is more frequent).
func (v *Vocab) Word(i int) string { return v.words[i] }

// draw returns the index of one word drawn with Zipf probabilities: the
// first word whose cumulative weight reaches one uniform draw scaled to
// the total. It consumes exactly one rng.Float64.
func (v *Vocab) draw(rng *rand.Rand) int {
	return v.search(rng.Float64() * v.cum[len(v.cum)-1])
}

// search returns the first i with cum[i] >= x (the last word if there is
// none). The guide narrows the binary search to x's bucket; the two
// checks fall back to the whole range when rounding in x*guideScale put x
// near a bucket edge, so the answer is always the exact one.
func (v *Vocab) search(x float64) int {
	last := len(v.cum) - 1
	j := min(int(x*v.guideScale), len(v.guide)-2)
	lo, hi := int(v.guide[j]), int(v.guide[j+1])
	if lo > 0 && v.cum[lo-1] >= x {
		lo = 0
	}
	if v.cum[hi] < x {
		hi = last
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if v.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// drawN appends to dst the indices of n distinct words, drawing until it
// has them (or the whole vocabulary). Words are distinct, so distinct
// indices are distinct words. n is a label's word count: the duplicate
// check is a scan of the indices appended so far.
func (v *Vocab) drawN(dst []int32, n int, rng *rand.Rand) []int32 {
	base := len(dst)
	for len(dst)-base < n && len(dst)-base < len(v.words) {
		w := int32(v.draw(rng))
		if !slices.Contains(dst[base:], w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// join returns the words at idx separated by single spaces, built in one
// allocation.
func (v *Vocab) join(idx []int32) string {
	if len(idx) == 0 {
		return ""
	}
	size := len(idx) - 1
	for _, w := range idx {
		size += len(v.words[w])
	}
	var sb strings.Builder
	sb.Grow(size)
	for k, w := range idx {
		if k > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.words[w])
	}
	return sb.String()
}

func synthWord(rng *rand.Rand) string {
	n := 2 + rng.Intn(2) // 2–3 syllables
	w := ""
	for i := 0; i < n; i++ {
		w += onsets[rng.Intn(len(onsets))] + nuclei[rng.Intn(len(nuclei))]
	}
	return w + codas[rng.Intn(len(codas))]
}
