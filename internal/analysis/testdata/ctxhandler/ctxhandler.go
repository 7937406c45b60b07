// Package ctxhandler is a wikilint test fixture: each want comment is an
// expected ctxhandler finding on that line.
package ctxhandler

import (
	"context"
	"net/http"
	"time"
)

// Engine is a stand-in for the search engine.
type Engine struct{}

// SearchContext runs a query under ctx.
func (e *Engine) SearchContext(ctx context.Context, q string) int {
	_ = ctx
	return len(q)
}

// Good threads the request context.
func Good(e *Engine, w http.ResponseWriter, r *http.Request) {
	_ = e.SearchContext(r.Context(), r.URL.Query().Get("q"))
}

// Derived wraps the request context with a timeout.
func Derived(e *Engine, w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), time.Second)
	defer cancel()
	_ = e.SearchContext(ctx, "q")
}

// Rewrapped derives twice and stores intermediate contexts.
func Rewrapped(e *Engine, w http.ResponseWriter, r *http.Request) {
	base := r.Context()
	ctx := context.WithValue(base, "k", "v")
	_ = e.SearchContext(ctx, "q")
}

// Background drops the request context.
func Background(e *Engine, w http.ResponseWriter, r *http.Request) {
	_ = e.SearchContext(context.Background(), "q") // want `handler passes Background`
}

// Todo drops the request context.
func Todo(e *Engine, w http.ResponseWriter, r *http.Request) {
	_ = e.SearchContext(context.TODO(), "q") // want `handler passes TODO`
}

// Detached builds a context unrelated to the request.
func Detached(e *Engine, w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	_ = e.SearchContext(ctx, "q") // want `handler passes a context not derived from the request`
}

// NilCtx passes nil.
func NilCtx(e *Engine, w http.ResponseWriter, r *http.Request) {
	_ = e.SearchContext(nil, "q") // want `handler passes a nil context`
}
