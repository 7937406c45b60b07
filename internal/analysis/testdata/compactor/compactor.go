// Package compactor is a wikilint test fixture for the live-mutation
// writer/compactor discipline (mutate.go): delta state owned by annotated
// //wikisearch:writer functions, among them a background compact loop.
// Each want comment is an expected finding on that line.
package compactor

// Compactor models the mutator: a delta only its writer methods may
// touch, and a background loop folding the delta into the base.
type Compactor struct {
	//wikisearch:singlewriter
	delta []int
	//wikisearch:singlewriter
	published int

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New starts the background compactor; Close stops and joins it.
func New() *Compactor {
	c := &Compactor{
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.loop()
	return c
}

// loop waits for ripened deltas until Close signals stop.
//
//wikisearch:writer
func (c *Compactor) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.wake:
			c.compact()
		}
	}
}

// Close stops the loop and joins it.
func (c *Compactor) Close() {
	close(c.stop)
	<-c.done
}

// Apply is the owning writer of the delta.
//
//wikisearch:writer
func (c *Compactor) Apply(v int) {
	c.delta = append(c.delta, v)
	if len(c.delta) > 64 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// compact folds and resets the delta; called from the loop, which owns
// the writer role for the whole iteration.
//
//wikisearch:writer
func (c *Compactor) compact() {
	c.published += len(c.delta)
	c.delta = c.delta[:0]
}

// Pending reads through the blessed drain accessor.
//
//wikisearch:drain
func (c *Compactor) Pending() int {
	return len(c.delta)
}

// Rogue mutates the delta outside the annotated writers.
func (c *Compactor) Rogue() {
	c.delta = nil // want `write to single-writer field Compactor.delta outside its //wikisearch:writer owner`
}

// PeekPublished reads outside the drain accessors.
func (c *Compactor) PeekPublished() int {
	return c.published // want `read of single-writer field Compactor.published outside a //wikisearch:drain accessor`
}
