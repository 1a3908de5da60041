package tenant

import "sync"

// WFQ is a deficit-round-robin weighted-fair queue across the
// priority classes: one bounded FIFO per class, drained one item at a
// time in DRR order. It replaces a single admission channel in front
// of a micro-batcher, so the drain share of each class under backlog
// is proportional to its weight while idle classes donate their
// capacity (work conservation) and even the lowest class can never
// starve (its quantum accrues on every scheduler visit).
//
// DRR with unit item cost: the scheduler keeps a cursor over the
// classes and a per-class deficit counter. Arriving at a class adds
// its quantum (weight) to the deficit; while the class is non-empty
// and has deficit >= 1, each pop costs 1. The cursor only advances
// when the class runs out of deficit or items, and a class that
// empties has its deficit reset — credit does not accumulate while
// there is nothing to spend it on, which is what bounds any class's
// burst at (weight + 1) items per full rotation.
//
// PopClass supports the batcher's class-homogeneous micro-batches:
// once DRR has picked the class of the next flush, the batcher keeps
// draining that class (possibly past its deficit, which then goes
// negative and is repaid out of future quanta) so a flush never mixes
// screening budgets across classes.
type WFQ[T any] struct {
	mu      sync.Mutex
	queues  [NumClasses][]T
	deficit [NumClasses]float64
	weights [NumClasses]int
	capPer  int // per-class queue bound
	depth   int // total queued items
	cursor  int
	closed  bool

	// ready is the wakeup channel: buffered(1), signaled on every Push
	// and closed by Close, so a blocked consumer always wakes for new
	// work and for drain.
	ready chan struct{}
}

// NewWFQ builds a scheduler with the given per-class queue bound.
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

// Push admits an item to its class queue: ErrClosed after Close,
// ErrQueueFull at the class bound.
func (q *WFQ[T]) Push(c Class, item T) error {
	i := c.Index()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if len(q.queues[i]) >= q.capPer {
		q.mu.Unlock()
		return ErrQueueFull
	}
	q.queues[i] = append(q.queues[i], item)
	q.depth++
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

// Pop removes the next item in DRR order. ok is false only when every
// class queue is empty — the scheduler is work-conserving: any
// backlog anywhere is always poppable immediately.
func (q *WFQ[T]) Pop() (item T, c Class, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.depth == 0 {
		return item, c, false
	}
	// Terminates: depth > 0 means some class is non-empty, and every
	// arrival at a non-empty class adds its quantum (>= 1) to that
	// class's deficit, so after finitely many rotations (bounded by
	// the deepest PopClass debt over the smallest weight) one class
	// can afford a pop. These are arithmetic-only iterations under the
	// lock — a handful of rotations at worst.
	for {
		i := q.cursor
		if len(q.queues[i]) == 0 {
			q.deficit[i] = 0
			q.advance()
			continue
		}
		if q.deficit[i] >= 1 {
			q.deficit[i]--
			return q.popLocked(i), Classes[i], true
		}
		q.advance()
	}
}

// PopClass removes the next item of a specific class, charging its
// deficit (which may go negative — the batcher gathering a micro-
// batch borrows against the class's future quanta). ok is false when
// that class's queue is empty.
func (q *WFQ[T]) PopClass(c Class) (item T, ok bool) {
	i := c.Index()
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queues[i]) == 0 {
		return item, false
	}
	q.deficit[i]--
	return q.popLocked(i), true
}

// advance moves the cursor to the next class and grants that class
// its quantum — exactly once per arrival, which is what bounds the
// deficit at weight+1 and makes every class's wait finite.
func (q *WFQ[T]) advance() {
	q.cursor = (q.cursor + 1) % NumClasses
	q.deficit[q.cursor] += float64(q.weights[q.cursor])
}

func (q *WFQ[T]) popLocked(i int) T {
	item := q.queues[i][0]
	var zero T
	q.queues[i][0] = zero // release the reference for GC
	q.queues[i] = q.queues[i][1:]
	if len(q.queues[i]) == 0 {
		// Reset both the backing array (so the slice does not pin an
		// ever-growing arena) and the deficit (classic DRR: credit
		// vanishes when the queue empties).
		q.queues[i] = nil
		if q.deficit[i] > 0 {
			q.deficit[i] = 0
		}
	}
	q.depth--
	return item
}

// Close stops intake. Queued items remain poppable (the batcher
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

// Len returns the total queued depth.
func (q *WFQ[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// LenClass returns one class's queued depth.
func (q *WFQ[T]) LenClass(c Class) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queues[c.Index()])
}

// Depths returns every class's queue depth, priority-ordered, plus
// the shared per-class capacity — one locked snapshot for the
// degradation policy, which needs a consistent view across classes.
func (q *WFQ[T]) Depths() (depths [NumClasses]int, capPer int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.queues {
		depths[i] = len(q.queues[i])
	}
	return depths, q.capPer
}
