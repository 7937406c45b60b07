package wikisearch_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// servingDeps are the packages of this module that the serving binary,
// cmd/wikiserve, may link, each with the reason it is linked. The dataset
// makers (package dataset) and the paper's comparison systems (package
// paper) stay out.
var servingDeps = map[string]string{
	"wikisearch":                   "the engine: search, mutate, save and load",
	"wikisearch/cmd/wikiserve":     "the binary itself",
	"wikisearch/internal/core":     "the CPU-Par kernel",
	"wikisearch/internal/device":   "linked through internal/core's gpu.go, which shares stage-two internals with the CPU-Par kernel",
	"wikisearch/internal/graph":    "the knowledge graph",
	"wikisearch/internal/metrics":  "the server's latency histograms",
	"wikisearch/internal/parallel": "the worker pool",
	"wikisearch/internal/server":   "the HTTP service",
	"wikisearch/internal/storage":  "the v3 dump and the delta log",
	"wikisearch/internal/text":     "the tokenizer and inverted index",
	"wikisearch/internal/trace":    "the per-query span rings",
	"wikisearch/internal/weight":   "the degree-of-summary weights and activation levels",
}

// TestServingBinaryImports: go list -deps ./cmd/wikiserve names exactly the
// module packages in servingDeps, so a new dependency of the serving binary
// fails here until it is listed with its reason.
func TestServingBinaryImports(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/wikiserve").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var got []string
	for _, p := range strings.Fields(string(out)) {
		if p == "wikisearch" || strings.HasPrefix(p, "wikisearch/") {
			got = append(got, p)
		}
	}
	for _, p := range got {
		if _, ok := servingDeps[p]; !ok {
			t.Errorf("cmd/wikiserve links %s, which servingDeps does not allow", p)
		}
	}
	for p := range servingDeps {
		if !slices.Contains(got, p) {
			t.Errorf("servingDeps lists %s, which cmd/wikiserve no longer links", p)
		}
	}
}

// TestOnlyStorageImportsUnsafe: internal/storage, whose v3 loader hands
// out zero-copy views of the mapped dump, is the only package of this
// module whose non-test code imports unsafe, so no other package can mint
// a view that outlives the mapping.
func TestOnlyStorageImportsUnsafe(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if slices.Contains(fields[1:], "unsafe") {
			got = append(got, fields[0])
		}
	}
	if want := []string{"wikisearch/internal/storage"}; !slices.Equal(got, want) {
		t.Fatalf("packages importing unsafe: %v, want %v", got, want)
	}
}
