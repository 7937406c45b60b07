package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"wikisearch/internal/graph"
)

// Delta segments persist a mutation batch — the operations a Mutator
// applied on top of a compacted base — in the dump format's style:
// little-endian, versioned, CRC-guarded, written atomically and durably.
// A segment is a logical redo log: replaying its operations onto the base
// it names reproduces the mutated graph exactly, so a crash between
// compactions loses nothing that was saved.

const (
	deltaMagic   = 0x5753444c // "WSDL"
	deltaVersion = 1
)

// DeltaOpKind discriminates DeltaOp.
type DeltaOpKind uint8

// The mutation operations a delta segment records.
const (
	DeltaAddNode DeltaOpKind = iota + 1
	DeltaAddEdge
	DeltaRemoveEdge
	DeltaSetText
	DeltaReweight
)

func (k DeltaOpKind) String() string {
	switch k {
	case DeltaAddNode:
		return "add_node"
	case DeltaAddEdge:
		return "add_edge"
	case DeltaRemoveEdge:
		return "remove_edge"
	case DeltaSetText:
		return "set_keywords"
	case DeltaReweight:
		return "reweight"
	}
	return fmt.Sprintf("DeltaOpKind(%d)", uint8(k))
}

// DeltaOp is one recorded mutation. Field use by kind:
//
//	DeltaAddNode:    Label, Desc (the new node's id is implicit: base size
//	                 plus the number of preceding DeltaAddNode ops)
//	DeltaAddEdge:    From, To, Rel
//	DeltaRemoveEdge: From, To, Rel
//	DeltaSetText:    V, Label, Desc
//	DeltaReweight:   V, W
type DeltaOp struct {
	Kind        DeltaOpKind
	From, To, V graph.NodeID
	Rel         string
	Label, Desc string
	W           float64
}

// DeltaLog is one mutation batch rooted at a named base snapshot.
type DeltaLog struct {
	// Name is the dataset name of the base the ops apply to.
	Name string
	// BaseNodes/BaseEdges pin the base's shape; replay onto a different
	// graph is rejected.
	BaseNodes, BaseEdges int
	Ops                  []DeltaOp
}

// SaveDelta writes the delta segment to w (header, ops, CRC trailer).
func SaveDelta(w io.Writer, l *DeltaLog) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	enc := encoder{w: bw}
	enc.u32(deltaMagic)
	enc.u32(deltaVersion)
	enc.str(l.Name)
	enc.u64(uint64(l.BaseNodes))
	enc.u64(uint64(l.BaseEdges))
	enc.u64(uint64(len(l.Ops)))
	for i := range l.Ops {
		op := &l.Ops[i]
		enc.u32(uint32(op.Kind))
		switch op.Kind {
		case DeltaAddNode:
			enc.str(op.Label)
			enc.str(op.Desc)
		case DeltaAddEdge, DeltaRemoveEdge:
			enc.u64(uint64(op.From))
			enc.u64(uint64(op.To))
			enc.str(op.Rel)
		case DeltaSetText:
			enc.u64(uint64(op.V))
			enc.str(op.Label)
			enc.str(op.Desc)
		case DeltaReweight:
			enc.u64(uint64(op.V))
			enc.u64(math.Float64bits(op.W))
		default:
			return fmt.Errorf("storage: unknown delta op kind %d", op.Kind)
		}
	}
	if enc.err != nil {
		return enc.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// LoadDelta reads a delta segment previously written by SaveDelta,
// validating bounds and the CRC trailer.
func LoadDelta(r io.Reader) (*DeltaLog, error) { return loadDelta(r, inputSize(r)) }

// loadDelta decodes a segment from r; size is the input's length in bytes,
// or -1 when unknown.
func loadDelta(r io.Reader, size int64) (*DeltaLog, error) {
	dec := decoder{r: bufio.NewReaderSize(r, 1<<16), crc: crc32.NewIEEE(), remain: size}
	if m := dec.u32(); dec.err == nil && m != deltaMagic {
		return nil, fmt.Errorf("storage: bad delta magic %#x", m)
	}
	if v := dec.u32(); dec.err == nil && v != deltaVersion {
		return nil, fmt.Errorf("storage: unsupported delta version %d", v)
	}
	l := &DeltaLog{Name: dec.str()}
	l.BaseNodes = int(dec.u64())
	l.BaseEdges = int(dec.u64())
	n := dec.count()
	if dec.err != nil {
		return nil, dec.err
	}
	if l.BaseNodes < 0 || l.BaseNodes > maxCount || l.BaseEdges < 0 || l.BaseEdges > maxCount {
		return nil, fmt.Errorf("storage: absurd delta base %d nodes / %d edges", l.BaseNodes, l.BaseEdges)
	}
	// Every op costs at least its 4-byte kind, so a count the input cannot
	// hold fails here; the capacity cap bounds inputs of unknown size.
	if !dec.need(int64(n) * 4) {
		return nil, dec.err
	}
	l.Ops = make([]DeltaOp, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		op := DeltaOp{Kind: DeltaOpKind(dec.u32())}
		switch op.Kind {
		case DeltaAddNode:
			op.Label = dec.str()
			op.Desc = dec.str()
		case DeltaAddEdge, DeltaRemoveEdge:
			op.From = graph.NodeID(dec.u64())
			op.To = graph.NodeID(dec.u64())
			op.Rel = dec.str()
		case DeltaSetText:
			op.V = graph.NodeID(dec.u64())
			op.Label = dec.str()
			op.Desc = dec.str()
		case DeltaReweight:
			op.V = graph.NodeID(dec.u64())
			op.W = math.Float64frombits(dec.u64())
		default:
			if dec.err != nil {
				return nil, dec.err
			}
			return nil, fmt.Errorf("storage: unknown delta op kind %d at op %d", op.Kind, i)
		}
		if dec.err != nil {
			return nil, dec.err
		}
		l.Ops = append(l.Ops, op)
	}
	want := dec.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(dec.r, tail[:]); err != nil {
		return nil, fmt.Errorf("storage: missing delta CRC trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("storage: delta CRC mismatch (file %#x, computed %#x)", got, want)
	}
	return l, nil
}

// SaveDeltaFile writes the delta segment to path atomically and durably
// (temp file + fsync + rename + parent-directory fsync).
func SaveDeltaFile(path string, l *DeltaLog) error {
	return atomicWriteFile(disk, path, func(w io.Writer) error { return SaveDelta(w, l) })
}

// LoadDeltaFile reads a delta segment from path.
func LoadDeltaFile(path string) (*DeltaLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return loadDelta(f, st.Size())
}
