package server

import (
	"context"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"wikisearch"
	"wikisearch/internal/parallel"
)

// moduleFrame matches a stack line naming a function of this module, or the
// module function that created the goroutine.
var moduleFrame = regexp.MustCompile(`(?m)^(created by )?wikisearch[./]`)

// goroutineStacks returns every running goroutine's stack, keyed by its
// "goroutine N" header.
func goroutineStacks() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, " [")
		stacks[header] = g
	}
	return stacks
}

// checkNoLeak snapshots the running goroutines. Once the test and its
// later-registered cleanups (the Close calls) are done, it polls, for up to
// 5 s, until no goroutine that was not in the snapshot runs this module's
// code. Call it before starting what the test closes: cleanups run last in,
// first out.
func checkNoLeak(t testing.TB) {
	t.Helper()
	before := goroutineStacks()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			var leaked []string
			for id, stack := range goroutineStacks() {
				if _, old := before[id]; !old && moduleFrame.MatchString(stack) {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines outlived Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestCloseLeavesNoGoroutine starts each component that starts goroutines,
// works it until they run, and closes it: the engine's search-state worker
// pools, the mutator's background compactor, a mutable server, and a bare
// worker pool. Nothing any of them started may outlive its Close.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	ctx := context.Background()
	q := wikisearch.Query{Text: "xml rdf sql", Threads: 2}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Engine", func(t *testing.T) {
			eng := testEngine(t)
			if _, err := eng.Search(ctx, q); err != nil {
				t.Fatal(err)
			}
			eng.Close()
		}},
		{"Mutator", func(t *testing.T) {
			eng := testEngine(t)
			m, err := eng.NewMutator(wikisearch.MutatorOptions{CompactAfterOps: 1, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AddNode("zorblatt", "a node for the compactor to fold"); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Publish(); err != nil { // wakes the compactor
				t.Fatal(err)
			}
			if _, err := eng.Search(ctx, q); err != nil {
				t.Fatal(err)
			}
			m.Close()
			eng.Close()
		}},
		{"Server", func(t *testing.T) {
			s := testMutableServer(t) // closes the server and its engine
			if w := post(t, s, "/v1/mutate", `{"ops":[{"op":"add_node","label":"zorblatt"}]}`); w.Code != 200 {
				t.Fatalf("mutate: %d %s", w.Code, w.Body)
			}
			if w := get(t, s, "/v1/search?q=zorblatt+sql"); w.Code != 200 {
				t.Fatalf("search: %d %s", w.Code, w.Body)
			}
		}},
		{"Pool", func(t *testing.T) {
			p := parallel.NewPool(3)
			p.For(64, func(int) {})
			p.Close()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkNoLeak(t)
			c.run(t)
		})
	}
}
