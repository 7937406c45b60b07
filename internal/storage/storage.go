// Package storage persists a knowledge graph (CSR arrays, labels, relation
// names), its precomputed node weights, distance statistics and inverted
// index as one mmap-able dump (v3.go), so the CLI tools and the service load
// a prepared dump instead of regenerating and re-weighting it, and persists
// mutation batches as CRC-guarded delta segments (delta.go). Both formats
// are little-endian and versioned; loaders reject truncated, corrupted or
// foreign files with an error, never a panic.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
)

const (
	magic = 0x57534b42 // "WSKB"
	// maxStr bounds a single string record; labels and descriptions are
	// short, so anything larger signals corruption.
	maxStr = 1 << 20
	// maxCount bounds node/edge/op counts (268M) against absurd allocations
	// from a corrupt header.
	maxCount = 1 << 28
	// allocChunk caps the initial capacity of a decoded array (in
	// elements): it grows by append as records actually arrive, so
	// allocation is proportional to real input even when the input size is
	// unknown and a corrupt header declares a huge count.
	allocChunk = 1 << 16
)

// fileSystem is what an atomic write needs from the operating system.
// SaveDumpFileV3 and SaveDeltaFile write through disk, the OS
// implementation; the crash tests substitute a fake that fails, or loses
// everything not yet synced, after any one call.
type fileSystem interface {
	// CreateTemp creates a new file in dir whose name matches pattern, as
	// os.CreateTemp does.
	CreateTemp(dir, pattern string) (tempFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes dir's entries (a rename into it) durable.
	SyncDir(dir string) error
}

// tempFile is the open temp file of an atomic write.
type tempFile interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// disk is the fileSystem every exported writer uses.
var disk fileSystem = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (tempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	// os.CreateTemp makes the file 0600; a dump is for other users'
	// processes to load too.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return syncDir(dir) }

// atomicWriteFile writes path through a temp file of its own in the same
// directory, so readers never observe a partial file and concurrent writers
// of one path never share a temp file, and makes the result durable: the
// temp file is fsynced before the rename and the directory after it —
// otherwise a crash right after the rename can leave the target empty or
// truncated. Every error is returned, and the temp file never survives a
// failed write. Only a failed directory sync comes after the commit: the
// target then holds the new file, which a crash may still roll back.
func atomicWriteFile(fsys fileSystem, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// inputSize reports the total remaining bytes of r when it is a
// length-aware in-memory reader (bytes.Reader, bytes.Buffer,
// strings.Reader), or -1 when unknown. File-backed loads pass the stat
// size instead. The decoder uses it to reject headers whose declared
// element counts could not possibly fit the input, before allocating.
func inputSize(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	return -1
}

// encoder writes the delta log's little-endian records, keeping the first
// error.
type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) u32(v uint32) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	_, e.err = e.w.Write(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	_, e.err = e.w.Write(e.buf[:8])
}

func (e *encoder) str(s string) {
	if len(s) > maxStr {
		e.err = fmt.Errorf("storage: string of %d bytes exceeds limit", len(s))
		return
	}
	e.u32(uint32(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

// decoder reads the records encoder writes, feeding every byte to crc and
// keeping the first error.
type decoder struct {
	r   *bufio.Reader
	crc hash.Hash32
	err error
	buf [8]byte
	// remain is the number of input bytes left when the total input size
	// is known (file-backed and in-memory loads), -1 when it is not. It
	// lets need() reject declared sizes that cannot fit the input before
	// anything is allocated.
	remain int64
}

// need checks that n more bytes can still be present in the input. It is
// called with a declared byte size before decoding it, so a crafted header
// cannot drive allocations beyond the real input size.
func (d *decoder) need(n int64) bool {
	if d.err != nil {
		return false
	}
	if d.remain >= 0 && n > d.remain {
		d.err = fmt.Errorf("storage: declared %d bytes with %d left in file", n, d.remain)
		return false
	}
	return true
}

func (d *decoder) read(n int) []byte {
	if d.err != nil {
		return nil
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("storage: truncated file: %w", err)
		return nil
	}
	if d.remain >= 0 {
		d.remain -= int64(n)
	}
	d.crc.Write(b)
	return b
}

func (d *decoder) u32() uint32 {
	b := d.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) count() int {
	v := d.u64()
	if d.err == nil && v > maxCount {
		d.err = fmt.Errorf("storage: implausible count %d", v)
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxStr {
		d.err = fmt.Errorf("storage: string of %d bytes exceeds limit", n)
		return ""
	}
	if !d.need(int64(n)) {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("storage: truncated string: %w", err)
		return ""
	}
	if d.remain >= 0 {
		d.remain -= int64(n)
	}
	d.crc.Write(b)
	return string(b)
}
