package tenant

import "sync"

// WFQ is a deficit-round-robin weighted-fair queue across the
// priority classes: one bounded FIFO of entries per class, drained one
// entry at a time in DRR order. It replaces a single admission channel
// in front of a micro-batcher, so the drain share of each class under
// backlog is proportional to its weight while idle classes donate their
// capacity (work conservation) and even the lowest class can never
// starve (its quantum accrues on every scheduler visit). An entry
// carries n >= 1 items (a caller-formed batch is one entry), and
// bounds, depths and shares all count items, not entries.
//
// DRR with item cost: the scheduler keeps a cursor over the classes
// and a per-class deficit counter. Arriving at a class adds its quantum
// (weight) to the deficit; while the class is non-empty and has
// deficit >= 1, it pops its head entry and pays its n items — the
// deficit may go negative, since an entry is never split, and the debt
// is repaid out of future quanta. The cursor only advances when the
// class runs out of deficit or entries, and a class that empties has
// any credit reset — credit does not accumulate while there is nothing
// to spend it on, which is what bounds any class's burst at weight +
// one entry per full rotation.
//
// PopClass supports the batcher's class-homogeneous micro-batches:
// once DRR has picked the class of the next flush, the batcher keeps
// draining that class (possibly past its deficit, which then goes
// negative and is repaid out of future quanta) so a flush never mixes
// screening budgets across classes.
type WFQ[T any] struct {
	mu      sync.Mutex
	queues  [NumClasses][]entry[T]
	items   [NumClasses]int // queued items per class
	deficit [NumClasses]float64
	weights [NumClasses]int
	capPer  int // per-class bound, in items
	cursor  int
	closed  bool

	// ready is the wakeup channel: buffered(1), signaled on every Push
	// and closed by Close, so a blocked consumer always wakes for new
	// work and for drain.
	ready chan struct{}
}

// entry is one queued value and the number of items it counts for.
type entry[T any] struct {
	v T
	n int
}

// NewWFQ builds a scheduler with the given per-class bound in items.
// Weights must all be >= 1 (zero entries take DefaultWeights).
func NewWFQ[T any](capPerClass int, weights [NumClasses]int) *WFQ[T] {
	if capPerClass <= 0 {
		capPerClass = 256
	}
	for i, w := range weights {
		if w <= 0 {
			weights[i] = DefaultWeights[i]
		}
	}
	return &WFQ[T]{
		capPer:  capPerClass,
		weights: weights,
		ready:   make(chan struct{}, 1),
	}
}

// Ready returns the wakeup channel: it receives after pushes and is
// closed when the queue is closed. One consumer (the batcher's
// collector) selects on it.
func (q *WFQ[T]) Ready() <-chan struct{} { return q.ready }

// Push admits an entry of n items (n < 1 counts as 1) to its class
// queue: ErrClosed after Close, ErrQueueFull when the class's queued
// items plus n would exceed the bound.
func (q *WFQ[T]) Push(c Class, v T, n int) error {
	i := c.Index()
	n = max(n, 1)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if q.items[i]+n > q.capPer {
		q.mu.Unlock()
		return ErrQueueFull
	}
	q.queues[i] = append(q.queues[i], entry[T]{v: v, n: n})
	q.items[i] += n
	// Signal under the lock: Close closes ready under the same lock, so
	// a Push that passed the closed check can never send on a closed
	// channel. The send never blocks (buffered, with a default arm).
	select {
	case q.ready <- struct{}{}:
	default:
	}
	q.mu.Unlock()
	return nil
}

// Pop removes the next entry in DRR order. ok is false only when every
// class queue is empty — the scheduler is work-conserving: any
// backlog anywhere is always poppable immediately.
func (q *WFQ[T]) Pop() (v T, c Class, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items == [NumClasses]int{} {
		return v, c, false
	}
	// Terminates: some class is non-empty, and every arrival at a
	// non-empty class adds its quantum (>= 1) to that class's deficit,
	// so after finitely many rotations (bounded by the deepest debt over
	// the smallest weight) one class can afford a pop. These are
	// arithmetic-only iterations under the lock — a handful of
	// rotations at worst.
	for {
		i := q.cursor
		if len(q.queues[i]) == 0 {
			q.deficit[i] = 0
			q.advance()
			continue
		}
		if q.deficit[i] >= 1 {
			return q.popLocked(i), Classes[i], true
		}
		q.advance()
	}
}

// PopClass removes the next entry of a specific class, charging its
// items to the deficit (which may go negative — the batcher gathering
// a micro-batch borrows against the class's future quanta). ok is
// false when that class's queue is empty.
func (q *WFQ[T]) PopClass(c Class) (v T, ok bool) {
	i := c.Index()
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queues[i]) == 0 {
		return v, false
	}
	return q.popLocked(i), true
}

// advance moves the cursor to the next class and grants that class
// its quantum — exactly once per arrival, which is what bounds the
// deficit at weight+1 and makes every class's wait finite.
func (q *WFQ[T]) advance() {
	q.cursor = (q.cursor + 1) % NumClasses
	q.deficit[q.cursor] += float64(q.weights[q.cursor])
}

// popLocked removes class i's head entry and charges its items.
func (q *WFQ[T]) popLocked(i int) T {
	e := q.queues[i][0]
	q.queues[i][0] = entry[T]{} // release the reference for GC
	q.queues[i] = q.queues[i][1:]
	q.deficit[i] -= float64(e.n)
	q.items[i] -= e.n
	if len(q.queues[i]) == 0 {
		// Reset both the backing array (so the slice does not pin an
		// ever-growing arena) and any credit (classic DRR: credit
		// vanishes when the queue empties; debt is still repaid).
		q.queues[i] = nil
		if q.deficit[i] > 0 {
			q.deficit[i] = 0
		}
	}
	return e.v
}

// Close stops intake. Queued entries remain poppable (the batcher
// drains them); Ready is closed so a blocked consumer wakes.
func (q *WFQ[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ready)
}

// Closed reports whether Close has been called.
func (q *WFQ[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the total queued items.
func (q *WFQ[T]) Len() int {
	depths, _ := q.Depths()
	n := 0
	for _, d := range depths {
		n += d
	}
	return n
}

// LenClass returns one class's queued items.
func (q *WFQ[T]) LenClass(c Class) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items[c.Index()]
}

// Depths returns every class's queued items, priority-ordered, plus
// the shared per-class capacity — one locked snapshot for the
// degradation policy, which needs a consistent view across classes.
func (q *WFQ[T]) Depths() (depths [NumClasses]int, capPer int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items, q.capPer
}
