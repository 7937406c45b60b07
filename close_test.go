//go:build linux

package wikisearch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"wikisearch/internal/core"
)

// readStrings returns a copy of every string reachable from v, in a fixed
// order, or the fault that reading one raised: a string that aliases an
// unmapped dump faults instead of crashing the test binary.
func readStrings(v any) (out []string, fault any) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() { fault = recover() }()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			out = append(out, strings.Clone(v.String()))
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Map:
			keys := v.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int {
				return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
			})
			for _, k := range keys {
				walk(k)
				walk(v.MapIndex(k))
			}
		}
	}
	walk(reflect.ValueOf(v))
	return out, nil
}

// saveEngine saves an in-memory engine over g to a fresh file and returns
// the engine and the path.
func saveEngine(t *testing.T, g *Graph) (*Engine, string) {
	t.Helper()
	eng, err := NewEngine(g, EngineOptions{Threads: 2, DistanceSamplePairs: 200})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kb.v3")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	return eng, path
}

// loadMapped loads path and skips the test where the dump is not mapped.
func loadMapped(t *testing.T, path string) *Engine {
	t.Helper()
	var eng *Engine
	var err error
	func() {
		// A load that reads a view of an earlier, unmapped dump faults.
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadEngine faulted: %v", r)
			}
		}()
		eng, err = LoadEngine(path, EngineOptions{})
	}()
	if err != nil {
		t.Fatal(err)
	}
	if mode := eng.LoadInfo().Mode; mode != "mmap" {
		eng.Close()
		t.Skipf("dump loaded by %q, not mapped", mode)
	}
	return eng
}

// searchBoth answers q with Search and with SearchWith.
func searchBoth(t *testing.T, eng *Engine, q Query) []*Result {
	t.Helper()
	a, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.SearchWith(context.Background(), q, core.SearchDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) == 0 || len(b.Answers) == 0 {
		t.Fatal("no answers")
	}
	return []*Result{a, b}
}

// TestResultOutlivesEngineClose: every string of a Result from a mapped
// engine — labels, descriptions, relation names, terms — stays readable
// and unchanged after Engine.Close unmaps the dump. The dump's addresses
// are then fenced off, so nothing else can be mapped there and a read of
// any view left over from the closed engine faults. A second engine loads
// the same file and searches: a view of the first that it reaches, say
// through a package-level variable, faults too.
func TestResultOutlivesEngineClose(t *testing.T) {
	q := Query{Text: "xml rdf sql", TopK: 5}
	ref, path := saveEngine(t, paperGraph(t))
	eng := loadMapped(t, path)
	lo, hi := mappedRange(t, path)
	results := searchBoth(t, eng, q)
	want, fault := readStrings(results)
	if fault != nil {
		t.Fatal(fault)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	fence(t, lo, hi)
	got, fault := readStrings(results)
	if fault != nil {
		t.Fatalf("reading a Result after Close faulted: %v", fault)
	}
	if !slices.Equal(got, want) {
		t.Fatal("a Result's strings changed after Close")
	}

	second := loadMapped(t, path)
	defer second.Close()
	want, _ = readStrings(searchBoth(t, ref, q))
	got, fault = readStrings(searchBoth(t, second, q))
	if fault != nil {
		t.Fatalf("reading a Result of the second load faulted: %v", fault)
	}
	if !slices.Equal(got, want) {
		t.Fatal("the second load answers unlike its in-memory engine")
	}
}

// TestLoadEngineMapsUntilClose: the dump file appears in the process's
// memory map after LoadEngine and is gone after Close.
func TestLoadEngineMapsUntilClose(t *testing.T) {
	_, path := saveEngine(t, paperGraph(t))
	eng := loadMapped(t, path)
	if lo, _ := mappedRange(t, path); lo == 0 {
		t.Fatalf("%s is not in /proc/self/maps after LoadEngine", path)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if lo, _ := mappedRange(t, path); lo != 0 {
		t.Fatalf("%s is still in /proc/self/maps after Close", path)
	}
}

// mappedRange returns the addresses /proc/self/maps lists for path, or
// zeros when it lists none.
func mappedRange(t *testing.T, path string) (lo, hi uintptr) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if !strings.HasSuffix(line, " "+path) {
			continue
		}
		from, to, _ := strings.Cut(strings.Fields(line)[0], "-")
		a, _ := strconv.ParseUint(from, 16, 64)
		b, _ := strconv.ParseUint(to, 16, 64)
		if lo == 0 || uintptr(a) < lo {
			lo = uintptr(a)
		}
		hi = max(hi, uintptr(b))
	}
	return lo, hi
}

// fence maps lo..hi inaccessible for the rest of the test, failing if
// anything was mapped there since the dump was unmapped.
func fence(t *testing.T, lo, hi uintptr) {
	const mapFixedNoReplace = 0x100000 // MAP_FIXED_NOREPLACE, Linux 4.17
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, lo, hi-lo, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|mapFixedNoReplace, ^uintptr(0), 0)
	if errno != 0 {
		t.Fatalf("fencing %#x-%#x: %v", lo, hi, errno)
	}
	t.Cleanup(func() { syscall.Syscall(syscall.SYS_MUNMAP, addr, hi-lo, 0) })
	if addr != lo {
		t.Fatalf("fence of %#x-%#x landed at %#x", lo, hi, addr)
	}
}
