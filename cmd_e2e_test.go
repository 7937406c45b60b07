package wikisearch_test

// End-to-end tests of the command-line tools: build the real binaries and
// drive the wikigen → wikisearch / wikiserve pipeline on a tiny dataset.

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wikisearch"
)

// buildTools compiles the named cmds (default: the pipeline's three) once
// into a shared temp dir.
func buildTools(t *testing.T, tools ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping cmd e2e in -short mode")
	}
	if len(tools) == 0 {
		tools = []string{"wikigen", "wikisearch", "benchrunner"}
	}
	dir := t.TempDir()
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func TestCmdPipeline(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	dump := filepath.Join(work, "tiny.wskb")

	// wikigen: generate and save.
	out, err := exec.Command(filepath.Join(bin, "wikigen"),
		"-preset", "tiny-sim", "-out", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("wikigen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "generated tiny-sim") || !strings.Contains(string(out), "wrote") {
		t.Fatalf("wikigen output: %s", out)
	}
	if st, err := os.Stat(dump); err != nil || st.Size() == 0 {
		t.Fatalf("dump missing: %v", err)
	}

	// wikisearch: one-shot query against the dump.
	out, err = exec.Command(filepath.Join(bin, "wikisearch"),
		"-kb", dump, "-q", "statistical relational learning", "-k", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("wikisearch: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "loaded tiny-sim") || !strings.Contains(s, "terms=") {
		t.Fatalf("wikisearch output: %s", s)
	}
	if !strings.Contains(s, "1.") {
		t.Fatalf("no ranked answers in output: %s", s)
	}

	// wikisearch with the BANKS baseline.
	out, err = exec.Command(filepath.Join(bin, "wikisearch"),
		"-kb", dump, "-q", "statistical relational learning", "-variant", "banks2").CombinedOutput()
	if err != nil {
		t.Fatalf("wikisearch banks2: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "trees in") {
		t.Fatalf("banks output: %s", out)
	}

	// Missing -kb is a usage error.
	if _, err := exec.Command(filepath.Join(bin, "wikisearch"), "-q", "x").CombinedOutput(); err == nil {
		t.Fatal("wikisearch without -kb succeeded")
	}
}

func TestCmdWikigenImport(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()

	// Import an N-Triples file into a dump, then query it.
	nt := filepath.Join(work, "kb.nt")
	const triples = `<http://kb/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "statistical relational learning" .
<http://kb/Q2> <http://www.w3.org/2000/01/rdf-schema#label> "inference engines" .
<http://kb/Q1> <http://kb/p/relatedTo> <http://kb/Q2> .
`
	if err := os.WriteFile(nt, []byte(triples), 0o644); err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(work, "kb.wskb")
	out, err := exec.Command(filepath.Join(bin, "wikigen"),
		"-import-nt", nt, "-out", dump, "-name", "nt-import").CombinedOutput()
	if err != nil {
		t.Fatalf("wikigen -import-nt: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "imported") {
		t.Fatalf("output: %s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "wikisearch"),
		"-kb", dump, "-q", "statistical inference", "-k", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("wikisearch on imported kb: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "loaded nt-import") {
		t.Fatalf("output: %s", out)
	}

	// Import a Wikidata JSON dump.
	wd := filepath.Join(work, "dump.json")
	const entities = `{"type":"item","id":"Q1","labels":{"en":{"value":"parallel keyword search"}},"claims":{}}
{"type":"item","id":"Q2","labels":{"en":{"value":"knowledge graphs"}},"claims":{"P1":[{"mainsnak":{"snaktype":"value","datavalue":{"type":"wikibase-entityid","value":{"id":"Q1"}}}}]}}
`
	if err := os.WriteFile(wd, []byte(entities), 0o644); err != nil {
		t.Fatal(err)
	}
	dump2 := filepath.Join(work, "wd.wskb")
	out, err = exec.Command(filepath.Join(bin, "wikigen"),
		"-import", wd, "-out", dump2).CombinedOutput()
	if err != nil {
		t.Fatalf("wikigen -import: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "2 entities") {
		t.Fatalf("output: %s", out)
	}
}

// TestCmdWikigenImportRequiresOut: an import without -out is a usage
// error, not a write to the preset's default <preset>.wskb, which would
// overwrite a generated dump of that name.
func TestCmdWikigenImportRequiresOut(t *testing.T) {
	bin := filepath.Join(buildTools(t, "wikigen"), "wikigen")
	work := t.TempDir()
	for _, c := range []struct{ flag, file, body string }{
		{"-import", "dump.json", `{"type":"item","id":"Q1","labels":{"en":{"value":"graph"}},"claims":{}}` + "\n"},
		{"-import-nt", "kb.nt", `<http://kb/Q1> <http://kb/p/r> <http://kb/Q2> .` + "\n"},
	} {
		flag, src := c.flag, filepath.Join(work, c.file)
		if err := os.WriteFile(src, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, flag, src)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() == 0 {
			t.Fatalf("%s without -out: err = %v, want a failing exit\n%s", flag, err, out)
		}
		if !strings.Contains(string(out), flag+" requires -out") {
			t.Fatalf("%s without -out: output %s", flag, out)
		}
		if _, err := os.Stat(filepath.Join(work, "wiki2017-sim.wskb")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s without -out wrote the default dump (stat err %v)", flag, err)
		}
	}
}

func TestCmdBenchrunnerFig3(t *testing.T) {
	bin := buildTools(t)
	out, err := exec.Command(filepath.Join(bin, "benchrunner"),
		"-exp", "fig3", "-dataset", "tiny-sim", "-queries", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("benchrunner: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "== fig3") || !strings.Contains(s, "alpha-0.05") {
		t.Fatalf("fig3 output: %s", s)
	}
}

// TestCmdBenchrunnerUnknownExperiment: an -exp name that selects nothing is
// a usage error (exit 2) naming the valid experiments, not a silent no-op.
func TestCmdBenchrunnerUnknownExperiment(t *testing.T) {
	bin := filepath.Join(buildTools(t, "benchrunner"), "benchrunner")
	for _, exp := range []string{"nope", "exp5", "fig3,core"} {
		out, err := exec.Command(bin, "-exp", exp).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-exp %s: err = %v, want exit 2\n%s", exp, err, out)
		}
		if s := string(out); !strings.Contains(s, "unknown experiment") || !strings.Contains(s, "fig3, exp1") {
			t.Fatalf("-exp %s output: %s", exp, s)
		}
	}
}

// TestCmdWikiserveCompactAfterNeedsMutate: -compact-after without -mutate
// is a usage error (exit 2) before anything is loaded, not silently ignored.
func TestCmdWikiserveCompactAfterNeedsMutate(t *testing.T) {
	bin := filepath.Join(buildTools(t, "wikiserve"), "wikiserve")
	out, err := exec.Command(bin, "-kb", "none.wskb", "-compact-after", "8").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-compact-after requires -mutate") {
		t.Fatalf("output: %s", out)
	}
}

// TestCmdWikiserveListenErrorExits: when the listen address is taken,
// wikiserve reports the error and exits 1 instead of waiting for a signal
// that will never come.
func TestCmdWikiserveListenErrorExits(t *testing.T) {
	bin := buildTools(t, "wikigen", "wikiserve")
	dump := filepath.Join(t.TempDir(), "tiny.wskb")
	if out, err := exec.Command(filepath.Join(bin, "wikigen"), "-preset", "tiny-sim", "-out", dump).CombinedOutput(); err != nil {
		t.Fatalf("wikigen: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, filepath.Join(bin, "wikiserve"),
		"-kb", dump, "-addr", ln.Addr().String()).CombinedOutput()
	var ee *exec.ExitError
	if ctx.Err() != nil || !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v (ctx %v), want exit 1\n%s", err, ctx.Err(), out)
	}
	if !strings.Contains(string(out), "address already in use") {
		t.Fatalf("output: %s", out)
	}
}

// TestCmdWikiserveRejectsV3Dump: a dump in the retired version-3 layout
// stops wikiserve at startup with exit 1 and the loader's error naming
// the version, before anything listens.
func TestCmdWikiserveRejectsV3Dump(t *testing.T) {
	bin := buildTools(t, "wikigen", "wikiserve")
	dump := filepath.Join(t.TempDir(), "tiny.wskb")
	if out, err := exec.Command(filepath.Join(bin, "wikigen"), "-preset", "tiny-sim", "-out", dump).CombinedOutput(); err != nil {
		t.Fatalf("wikigen: %v\n%s", err, out)
	}
	wikisearch.MarkVersion3(t, dump)
	out, err := exec.Command(filepath.Join(bin, "wikiserve"), "-kb", dump, "-addr", "127.0.0.1:0").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "not a v4 dump (version 3)") {
		t.Fatalf("output: %s", out)
	}
}
