package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"wikisearch"
)

// Live mutation over HTTP: POST /v1/mutate applies a batch of graph
// mutations through the engine's single-writer Mutator and (by default)
// publishes them as a new epoch snapshot, so the next search sees them.
// The endpoint exists on every server; without EnableMutation it answers
// 409 read_only, which keeps the route table identical between read-only
// and mutable deployments.
//
// Status mapping (same envelope as every /v1 route):
//
//	400 bad_request         malformed JSON, unknown op, missing/invalid fields
//	405 method_not_allowed  any method but POST
//	409 read_only           server started without mutation enabled
//	409 conflict            remove_edge of an edge the graph does not have
//	422 unprocessable       well-formed op the engine rejects (bad node id,
//	                        weight out of range)
//
// A batch is applied in order; the first failing op aborts the batch and
// nothing is published — ops before the failure stay pending in the
// mutator's delta (visible in /v1/stats pending_ops) and ride along with
// the next successful publish.

// maxMutateBody bounds the /v1/mutate request body.
const maxMutateBody = 8 << 20

// maxMutateOps bounds the ops of one /v1/mutate batch.
const maxMutateOps = 65536

// MutateOp is one mutation of a POST /v1/mutate batch. Op selects the
// operation; the other fields' use matches the Mutator method it maps to:
//
//	add_node     label, desc            → result carries the assigned node id
//	add_edge     from, to, rel
//	remove_edge  from, to, rel
//	set_keywords node, label, desc
//	reweight     node, weight
type MutateOp struct {
	Op     string   `json:"op"`
	From   *int64   `json:"from,omitempty"`
	To     *int64   `json:"to,omitempty"`
	Node   *int64   `json:"node,omitempty"`
	Rel    string   `json:"rel,omitempty"`
	Label  string   `json:"label,omitempty"`
	Desc   string   `json:"desc,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
}

// V1MutateRequest is the POST /v1/mutate body.
type V1MutateRequest struct {
	Ops []MutateOp `json:"ops"`
	// Publish selects whether the batch is published as a new epoch once
	// applied (default true). false accumulates: a later batch or an
	// explicit publish makes the ops visible.
	Publish *bool `json:"publish,omitempty"`
}

// V1MutateResult is one applied op in the /v1/mutate results array.
type V1MutateResult struct {
	Op string `json:"op"`
	// Node is the id assigned by add_node (absent for other ops).
	Node *int64 `json:"node,omitempty"`
}

// V1MutateStats is the stats block of the /v1/mutate envelope.
type V1MutateStats struct {
	// Applied is the number of ops this request applied.
	Applied int `json:"applied"`
	// Published reports whether the batch was published; Epoch is the
	// epoch serving searches after this request.
	Published bool   `json:"published"`
	Epoch     uint64 `json:"epoch"`
	// PendingOps counts applied-but-unpublished ops; DeltaOps counts
	// everything since the last compaction.
	PendingOps int     `json:"pending_ops"`
	DeltaOps   int     `json:"delta_ops"`
	PublishMs  float64 `json:"publish_ms"`
}

// v1Envelope is the generic /v1 response shape for endpoints whose results
// and stats blocks are not the search payload.
type v1Envelope struct {
	Results any      `json:"results,omitempty"`
	Stats   any      `json:"stats,omitempty"`
	Error   *V1Error `json:"error,omitempty"`
}

// EnableMutation opens the engine's single-writer mutator and arms the
// POST /v1/mutate endpoint. Call it once, before serving; it fails if the
// engine already has an open mutator. Every publication — from this server
// or the background compactor — purges the query-result cache and feeds the
// publish metrics.
func (s *Server) EnableMutation(o wikisearch.MutatorOptions) error {
	m, err := s.eng.NewMutator(o)
	if err != nil {
		return err
	}
	s.mut = m
	s.eng.SetPublishObserver(func(info wikisearch.PublishInfo) {
		s.PurgeCache()
		s.met.observePublish(info)
	})
	return nil
}

// Close releases the server's mutator, if mutation was enabled.
func (s *Server) Close() error {
	if s.mut == nil {
		return nil
	}
	m := s.mut
	s.mut = nil
	return m.Close()
}

func (s *Server) handleV1Mutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.v1Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	if s.mut == nil {
		s.v1Error(w, http.StatusConflict, "read_only",
			"this server is read-only; start wikiserve with -mutate")
		return
	}
	var req V1MutateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.v1Error(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Ops) == 0 {
		s.v1Error(w, http.StatusBadRequest, "bad_request", "ops must be a non-empty array")
		return
	}
	if len(req.Ops) > maxMutateOps {
		s.v1Error(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("too many ops (%d > %d)", len(req.Ops), maxMutateOps))
		return
	}
	// Structural validation up front: a batch with a malformed op is
	// rejected whole, before any mutation is applied.
	for i := range req.Ops {
		if msg := req.Ops[i].validate(); msg != "" {
			s.v1Error(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("op %d (%s): %s", i, req.Ops[i].Op, msg))
			return
		}
	}

	results := make([]V1MutateResult, 0, len(req.Ops))
	for i := range req.Ops {
		op := &req.Ops[i]
		res := V1MutateResult{Op: op.Op}
		var err error
		switch op.Op {
		case "add_node":
			var v wikisearch.NodeID
			if v, err = s.mut.AddNode(op.Label, op.Desc); err == nil {
				id := int64(v)
				res.Node = &id
			}
		case "add_edge":
			err = s.mut.AddEdge(wikisearch.NodeID(*op.From), wikisearch.NodeID(*op.To), op.Rel)
		case "remove_edge":
			err = s.mut.RemoveEdge(wikisearch.NodeID(*op.From), wikisearch.NodeID(*op.To), op.Rel)
		case "set_keywords":
			err = s.mut.SetKeywords(wikisearch.NodeID(*op.Node), op.Label, op.Desc)
		case "reweight":
			err = s.mut.Reweight(wikisearch.NodeID(*op.Node), *op.Weight)
		}
		if err != nil {
			s.mutateError(w, i, op.Op, err)
			return
		}
		results = append(results, res)
	}

	stats := V1MutateStats{Applied: len(results)}
	if req.Publish == nil || *req.Publish {
		info, err := s.mut.Publish()
		if err != nil {
			s.v1Error(w, http.StatusUnprocessableEntity, "unprocessable", err.Error())
			return
		}
		stats.Published = true
		stats.PublishMs = float64(info.Duration) / float64(time.Millisecond)
	}
	ms := s.mut.Stats()
	stats.Epoch = s.eng.Epoch()
	stats.PendingOps = ms.PendingOps
	stats.DeltaOps = ms.Ops
	s.json(w, http.StatusOK, v1Envelope{Results: results, Stats: &stats})
}

// mutateError maps an op-application failure: an edge removal the graph
// cannot satisfy is a state conflict (409, retryable after re-reading);
// everything else the engine rejects is unprocessable (422).
func (s *Server) mutateError(w http.ResponseWriter, i int, op string, err error) {
	msg := fmt.Sprintf("op %d (%s): %s", i, op, err.Error())
	if op == "remove_edge" {
		s.v1Error(w, http.StatusConflict, "conflict", msg)
		return
	}
	s.v1Error(w, http.StatusUnprocessableEntity, "unprocessable", msg)
}

// validate checks one op's shape; the returned message is empty when the
// op is well-formed and client-facing otherwise.
func (o *MutateOp) validate() string {
	switch o.Op {
	case "add_node":
		return ""
	case "add_edge", "remove_edge":
		switch {
		case o.From == nil || o.To == nil:
			return "from and to are required"
		case !nodeIDInRange(*o.From) || !nodeIDInRange(*o.To):
			return "from and to must be node ids in [0, 2147483647]"
		case o.Rel == "":
			return "rel is required"
		}
		return ""
	case "set_keywords", "reweight":
		switch {
		case o.Node == nil:
			return "node is required"
		case !nodeIDInRange(*o.Node):
			return "node must be a node id in [0, 2147483647]"
		case o.Op == "reweight" && o.Weight == nil:
			return "weight is required"
		}
		return ""
	case "":
		return "missing op"
	}
	return "unknown op (want add_node, add_edge, remove_edge, set_keywords or reweight)"
}

// nodeIDInRange reports whether a JSON node id fits the engine's int32
// NodeID; a larger one would wrap into another node's id.
func nodeIDInRange(id int64) bool { return id >= 0 && id <= math.MaxInt32 }
