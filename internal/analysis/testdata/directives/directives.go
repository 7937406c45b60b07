// Package directives is a wikilint test fixture for the directives
// validator. Findings land on the directive comments themselves, so the
// expectations live in directivecheck_test.go rather than in want comments
// (a line cannot carry both the offending comment and a want comment).
package directives

import "sync/atomic"

// Counter pairs a valid field directive with an invalid one and a retired
// one: the atomic discipline moved into the atomic.Uint64 field type.
type Counter struct {
	//wikisearch:singlewriter
	hits uint64
	//wikisearch:drain
	miss uint64 // BAD: drain is a func directive, found on a field
	//wikisearch:atomic
	errs uint64 // BAD: retired directive
}

// Incr bumps the counter.
//
//wikisearch:drain
func Incr(c *Counter) {
	atomic.AddUint64(&c.miss, 1)
}

// Typo carries a misspelled directive name.
//
//wikisearch:drian
func Typo() {}

// Spaced carries a directive detached by whitespace.
//
// wikisearch:drain
func Spaced() {}

// Stray puts a line-only directive on a type.
//
//wikisearch:volatile
type Stray struct{}

// Field-level writer is stale: the directive applies to funcs.
type Holder struct {
	//wikisearch:writer left on a field
	mu int
}

// Pinned carries the retired nocopy directive; a noCopy field and go vet's
// copylocks check replaced it.
//
//wikisearch:nocopy
type Pinned struct{}

// StrayWriter puts the single-writer owner directive on a type; the
// writer role belongs to func declarations (see mutate.go's compactor).
//
//wikisearch:writer
type StrayWriter struct{}

// Hot carries the retired hotpath and coldpath directives, and one line
// the retired allocok directive: the allocation guards, which run the
// search kernel and count its allocations, replaced them.
//
//wikisearch:hotpath
func Hot() []int {
	return make([]int, 8) //wikisearch:allocok
}

// Cold carries the retired coldpath directive.
//
//wikisearch:coldpath
func Cold() {}

// Serve carries the retired daemon directive: a goroutine-leak check that
// runs each Close replaced it.
func Serve() {
	go Cold() //wikisearch:daemon
}

// Mint carries the retired mmapview directive: TestResultOutlivesEngineClose
// and TestOnlyStorageImportsUnsafe, which run the code, replaced it.
//
//wikisearch:mmapview
func Mint() {}

// Mapped carries the retired viewholder directive.
//
//wikisearch:viewholder
type Mapped struct{}
