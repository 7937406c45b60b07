package storage

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// memFS is an in-memory fileSystem that keeps apart what the writing
// process sees (live) and what a crash leaves on disk (durable): a file's
// bytes become durable only when it is synced, and a directory's entries
// (created, renamed and removed names) only when the directory is synced.
// It counts every call — each Write is one — and can fail one call, or
// "crash" after one: every later call fails and reaches nothing.
type memFS struct {
	live, durable map[string]*memInode
	calls         int
	failAt        int    // the call that fails; 0 for none
	failed        string // the operation failAt hit
	crashAt       int    // the last call that runs; 0 for none
}

type memInode struct{ data, synced []byte }

type memFile struct {
	fs   *memFS
	name string
	ino  *memInode
}

var (
	errInjected = errors.New("injected fault")
	errCrashed  = errors.New("process crashed")
)

func newMemFS() *memFS {
	return &memFS{live: map[string]*memInode{}, durable: map[string]*memInode{}}
}

// put installs a durable file, as a completed earlier save leaves it.
func (m *memFS) put(name string, data []byte) {
	ino := &memInode{data: slices.Clone(data), synced: slices.Clone(data)}
	m.live[name], m.durable[name] = ino, ino
}

// step accounts for one call of op and returns the error it fails with.
func (m *memFS) step(op string) error {
	if m.crashAt > 0 && m.calls >= m.crashAt {
		return errCrashed
	}
	m.calls++
	if m.calls == m.failAt {
		m.failed = op
		return errInjected
	}
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (tempFile, error) {
	if err := m.step("create"); err != nil {
		return nil, err
	}
	name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.calls), 1))
	ino := &memInode{}
	m.live[name] = ino
	return &memFile{fs: m, name: name, ino: ino}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	if err := m.step("rename"); err != nil {
		return err
	}
	ino := m.live[oldpath]
	if ino == nil {
		return os.ErrNotExist
	}
	m.live[newpath] = ino
	delete(m.live, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	if err := m.step("remove"); err != nil {
		return err
	}
	if m.live[name] == nil {
		return os.ErrNotExist
	}
	delete(m.live, name)
	return nil
}

func (m *memFS) SyncDir(string) error {
	if err := m.step("syncdir"); err != nil {
		return err
	}
	m.durable = maps.Clone(m.live)
	return nil
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(p []byte) (int, error) {
	if err := f.fs.step("write"); err != nil {
		return 0, err
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if err := f.fs.step("sync"); err != nil {
		return err
	}
	f.ino.synced = slices.Clone(f.ino.data)
	return nil
}

func (f *memFile) Close() error { return f.fs.step("close") }

// durableFile returns what a crash leaves at name.
func (m *memFS) durableFile(name string) ([]byte, bool) {
	ino := m.durable[name]
	if ino == nil {
		return nil, false
	}
	return ino.synced, true
}

// fileWriter is one exported writer under test, with the image it must
// leave at its target.
type fileWriter struct {
	name  string
	save  func(path string) error
	image []byte
}

func fileWriters(t *testing.T) []fileWriter {
	d, l := sampleDump(t), sampleDelta()
	var dump, delta bytes.Buffer
	if err := SaveDumpV3(&dump, d); err != nil {
		t.Fatal(err)
	}
	if err := SaveDelta(&delta, l); err != nil {
		t.Fatal(err)
	}
	return []fileWriter{
		{"SaveDumpFileV3", func(path string) error { return SaveDumpFileV3(path, d) }, dump.Bytes()},
		{"SaveDeltaFile", func(path string) error { return SaveDeltaFile(path, l) }, delta.Bytes()},
	}
}

// useDisk routes the exported writers through fsys for the rest of the test.
func useDisk(t *testing.T, fsys fileSystem) {
	prev := disk
	disk = fsys
	t.Cleanup(func() { disk = prev })
}

// run saves through a fresh memFS holding old at the target (none when old
// is nil), with the given fault or crash point, and returns the file
// system, the target and the writer's error.
func (w fileWriter) run(t *testing.T, old []byte, failAt, crashAt int) (*memFS, string, error) {
	m := newMemFS()
	m.failAt, m.crashAt = failAt, crashAt
	// A writer that bypasses the file system writes here, not into the tree.
	target := filepath.Join(t.TempDir(), "kb.v3")
	if old != nil {
		m.put(target, old)
	}
	useDisk(t, m)
	return m, target, w.save(target)
}

// TestAtomicWriteFaults fails each call of each writer in turn. The writer
// must return the injected error, leave no temp file, and leave the target
// as it was — except when the directory sync fails, which comes after the
// commit: then the target already holds the new file, whole.
func TestAtomicWriteFaults(t *testing.T) {
	old := []byte("the previous file")
	for _, w := range fileWriters(t) {
		t.Run(w.name, func(t *testing.T) {
			seen := map[string]bool{}
			for failAt := 1; ; failAt++ {
				m, target, err := w.run(t, old, failAt, 0)
				if m.calls == 0 {
					t.Fatalf("%s wrote nothing through the file system", w.name)
				}
				if m.failed == "" { // fewer calls than failAt: a clean save
					if err != nil {
						t.Fatalf("clean save: %v", err)
					}
					if got := m.live[target]; got == nil || !bytes.Equal(got.data, w.image) {
						t.Fatal("clean save did not leave the new file at the target")
					}
					break
				}
				seen[m.failed] = true
				if !errors.Is(err, errInjected) {
					t.Fatalf("call %d (%s) failed, writer returned %v", failAt, m.failed, err)
				}
				want := old
				if m.failed == "syncdir" {
					want = w.image
				}
				if got := m.live[target]; got == nil || !bytes.Equal(got.data, want) {
					t.Fatalf("call %d (%s) failed: target does not hold the expected file", failAt, m.failed)
				}
				if len(m.live) != 1 {
					t.Fatalf("call %d (%s) failed: left %v", failAt, m.failed, slices.Sorted(maps.Keys(m.live)))
				}
			}
			for _, op := range []string{"create", "write", "sync", "close", "rename", "syncdir"} {
				if !seen[op] {
					t.Errorf("no %s call was failed", op)
				}
			}
		})
	}
}

// TestAtomicWriteCrash "crashes" each writer after each of its calls and
// reads what the crash left: every byte not yet synced and every name
// change whose directory was not yet synced is lost. The target must hold
// the old file or the new one, whole (or, with no old file, nothing or the
// new one), and the new one if the writer had already returned nil.
func TestAtomicWriteCrash(t *testing.T) {
	for _, w := range fileWriters(t) {
		t.Run(w.name, func(t *testing.T) {
			m, _, err := w.run(t, nil, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			total := m.calls
			if total == 0 {
				t.Fatalf("%s wrote nothing through the file system", w.name)
			}
			for _, old := range [][]byte{[]byte("the previous file"), nil} {
				for crashAt := 1; crashAt <= total; crashAt++ {
					m, target, err := w.run(t, old, 0, crashAt)
					got, ok := m.durableFile(target)
					switch {
					case ok && bytes.Equal(got, w.image):
					case err == nil:
						t.Fatalf("crash after call %d of %d: save returned nil, but the target does not hold the new file", crashAt, total)
					case old != nil && ok && bytes.Equal(got, old):
					case old == nil && !ok:
					default:
						t.Fatalf("crash after call %d of %d (old file: %v): the target holds %d bytes, neither file whole",
							crashAt, total, old != nil, len(got))
					}
				}
			}
		})
	}
}
