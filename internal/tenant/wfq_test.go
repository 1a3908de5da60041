package tenant

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fill pushes n items of class c, failing the test on any error.
func fill(t *testing.T, q *WFQ[int], c Class, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := q.Push(c, i, 1); err != nil {
			t.Fatalf("Push(%s, %d): %v", c, i, err)
		}
	}
}

// drainCount pops everything, tallying per class.
func drainCount(q *WFQ[int]) (counts [NumClasses]int, order []Class) {
	for {
		_, c, ok := q.Pop()
		if !ok {
			return counts, order
		}
		counts[c.Index()]++
		order = append(order, c)
	}
}

// Work conservation: with only one class backlogged, every pop serves
// it — idle classes donate their capacity and Pop never returns
// ok=false while anything is queued.
func TestWFQWorkConservation(t *testing.T) {
	for _, c := range Classes {
		q := NewWFQ[int](64, DefaultWeights)
		fill(t, q, c, 50)
		counts, _ := drainCount(q)
		if counts[c.Index()] != 50 {
			t.Fatalf("class %s: drained %d of 50", c, counts[c.Index()])
		}
		if q.Len() != 0 {
			t.Fatalf("class %s: %d items stranded", c, q.Len())
		}
	}
}

// Work conservation also holds after PopClass has driven a class's
// deficit deeply negative: the debt delays that class but must never
// strand items of any class.
func TestWFQWorkConservationAfterBorrow(t *testing.T) {
	q := NewWFQ[int](128, DefaultWeights)
	fill(t, q, Batch, 40)
	// Borrow hard: drain 32 batch items directly (a full micro-batch
	// gather), leaving batch's deficit around -32 at weight 1.
	for i := 0; i < 32; i++ {
		if _, ok := q.PopClass(Batch); !ok {
			t.Fatalf("PopClass(Batch) ran dry at %d", i)
		}
	}
	fill(t, q, Interactive, 3)
	counts, _ := drainCount(q)
	if counts[Batch.Index()] != 8 || counts[Interactive.Index()] != 3 {
		t.Fatalf("drained %v, want 8 batch + 3 interactive", counts)
	}
}

// Starvation freedom: with every class saturated by an adversarial
// producer, the lowest class still drains at ~its weight share, and
// its inter-service gap is bounded.
func TestWFQStarvationFreedom(t *testing.T) {
	weights := DefaultWeights // 8:4:1
	q := NewWFQ[int](512, weights)
	for _, c := range Classes {
		fill(t, q, c, 512)
	}
	// Serve a long, fully-backlogged run; every class stays non-empty
	// throughout so the drain shares should match the weights exactly.
	const rounds = 260 // 20 full rotations of weight-sum 13
	var counts [NumClasses]int
	lastBatch := -1
	maxGap := 0
	for i := 0; i < rounds; i++ {
		_, c, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop ran dry at %d with backlog", i)
		}
		counts[c.Index()]++
		if c == Batch {
			if lastBatch >= 0 && i-lastBatch > maxGap {
				maxGap = i - lastBatch
			}
			lastBatch = i
		}
	}
	if counts[Batch.Index()] == 0 {
		t.Fatal("batch starved under full backlog")
	}
	// Exact DRR shares under permanent backlog: weight/sum per rotation.
	wsum := 0
	for _, w := range weights {
		wsum += w
	}
	for i, c := range Classes {
		want := rounds * weights[i] / wsum
		if counts[i] < want-weights[i] || counts[i] > want+weights[i] {
			t.Errorf("class %s served %d, want ~%d (weight %d/%d)", c, counts[i], want, weights[i], wsum)
		}
	}
	// Batch is visited once per rotation; between two batch pops at
	// most one full rotation of higher-class quanta (8+4) plus
	// scheduling slack may elapse.
	if maxGap > wsum+NumClasses {
		t.Errorf("batch inter-service gap %d exceeds one rotation (%d)", maxGap, wsum+NumClasses)
	}
}

// Item shares: with every class saturated by a mix of 1- and 16-item
// entries — mostly single items for interactive, mostly batches for
// batch — the items served per class still track the weights. Charged
// one per entry, the batch class would be served ~16× its share.
func TestWFQItemShares(t *testing.T) {
	const maxN = 16
	weights := DefaultWeights // 8:4:1
	q := NewWFQ[int](1<<13, weights)
	bigPer8 := [NumClasses]int{1, 4, 7} // 16-item entries per 8, by class
	for ci, c := range Classes {
		for k := 0; q.LenClass(c) <= 1<<13-maxN; k++ {
			n := 1
			if k%8 < bigPer8[ci] {
				n = maxN
			}
			if err := q.Push(c, n, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	const served = 20 * 13 * maxN // 20 rotations' worth of 16-item entries
	var counts [NumClasses]int
	total := 0
	for total < served {
		n, c, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop ran dry after %d items with backlog", total)
		}
		counts[c.Index()] += n
		total += n
	}
	wsum := 0
	for _, w := range weights {
		wsum += w
	}
	for i, c := range Classes {
		want := total * weights[i] / wsum
		if tol := weights[i] + maxN; counts[i] < want-tol || counts[i] > want+tol {
			t.Errorf("class %s served %d items, want %d ± %d (weight %d/%d)", c, counts[i], want, tol, weights[i], wsum)
		}
	}
}

// Deficit accounting under adversarial arrivals: producers that
// alternate bursts and silences must not let any class accumulate
// credit while idle, and totals must conserve (pushed == popped).
func TestWFQDeficitAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := NewWFQ[int](1024, DefaultWeights)
	var pushed, popped [NumClasses]int
	for step := 0; step < 2000; step++ {
		// Adversary: bursty pushes into random classes, including long
		// silences for interactive so its deficit would balloon if idle
		// credit accumulated.
		if rng.Intn(3) > 0 {
			c := Classes[rng.Intn(NumClasses)]
			if step%97 < 60 && c == Interactive {
				c = Batch // starve interactive of arrivals for stretches
			}
			burst := rng.Intn(8)
			for i := 0; i < burst; i++ {
				if err := q.Push(c, step, 1); err == nil {
					pushed[c.Index()]++
				}
			}
		}
		for i := rng.Intn(5); i > 0; i-- {
			if _, c, ok := q.Pop(); ok {
				popped[c.Index()]++
			}
		}
	}
	counts, _ := drainCount(q)
	for i := range counts {
		popped[i] += counts[i]
	}
	if pushed != popped {
		t.Fatalf("conservation violated: pushed %v popped %v", pushed, popped)
	}
	// After a burst arrives on a long-idle class it must be served
	// within one rotation, not after "stored" credit is repaid by
	// others: deficit reset on empty guarantees the first interactive
	// pop happens within NumClasses pops of its arrival.
	q2 := NewWFQ[int](64, DefaultWeights)
	fill(t, q2, Batch, 60)
	for i := 0; i < 30; i++ { // let batch spend a while alone
		q2.Pop()
	}
	fill(t, q2, Interactive, 1)
	for i := 0; i < NumClasses+1; i++ {
		_, c, ok := q2.Pop()
		if !ok {
			t.Fatal("ran dry early")
		}
		if c == Interactive {
			return
		}
	}
	t.Fatal("interactive arrival waited more than one rotation")
}

// Bounds count items, per class: an n-item entry that brings its class
// to exactly the cap is admitted, one more item is not, and Close stops
// intake but not the drain.
func TestWFQBounds(t *testing.T) {
	q := NewWFQ[int](8, DefaultWeights)
	if err := q.Push(Interactive, 0, 9); err != ErrQueueFull {
		t.Fatalf("Push(9 items) at cap 8: %v, want ErrQueueFull", err)
	}
	if err := q.Push(Interactive, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Interactive, 0, 5); err != nil {
		t.Fatalf("Push to depth 3+5 = cap: %v", err)
	}
	if err := q.Push(Interactive, 0, 1); err != ErrQueueFull {
		t.Fatalf("Push to cap+1: %v, want ErrQueueFull", err)
	}
	if depths, _ := q.Depths(); depths[Interactive.Index()] != 8 || q.LenClass(Interactive) != 8 || q.Len() != 8 {
		t.Fatalf("Depths %v, LenClass %d, Len %d: want 8 items in 2 entries", depths, q.LenClass(Interactive), q.Len())
	}
	if _, ok := q.PopClass(Interactive); !ok || q.LenClass(Interactive) != 5 {
		t.Fatalf("after popping the 3-item entry: %d items queued, want 5", q.LenClass(Interactive))
	}

	q = NewWFQ[int](2, DefaultWeights)
	fill(t, q, Standard, 2)
	if err := q.Push(Standard, 9, 1); err != ErrQueueFull {
		t.Fatalf("Push over cap: %v, want ErrQueueFull", err)
	}
	// Other classes have their own bound.
	if err := q.Push(Batch, 1, 1); err != nil {
		t.Fatalf("Push other class: %v", err)
	}
	q.Close()
	if err := q.Push(Batch, 2, 1); err != ErrClosed {
		t.Fatalf("Push after close: %v, want ErrClosed", err)
	}
	// Drain still works after close.
	counts, _ := drainCount(q)
	if counts[Standard.Index()] != 2 || counts[Batch.Index()] != 1 {
		t.Fatalf("post-close drain %v", counts)
	}
	// A buffered signal may still be pending; after at most one value
	// the channel must report closed.
	deadline := time.After(time.Second)
	for {
		select {
		case _, open := <-q.Ready():
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("Ready not closed")
		}
	}
}

func TestWFQPopClassEmpty(t *testing.T) {
	q := NewWFQ[int](4, DefaultWeights)
	if _, ok := q.PopClass(Interactive); ok {
		t.Fatal("PopClass on empty queue returned ok")
	}
	depths, capPer := q.Depths()
	if depths != [NumClasses]int{} || capPer != 4 {
		t.Fatalf("Depths() = %v cap %d", depths, capPer)
	}
}

// Race hammer: concurrent producers on every class, one DRR consumer,
// and a config-reload thread flipping quotas through a Resolver — the
// shape of live traffic during SIGHUP. Run with -race.
func TestWFQConcurrentHammer(t *testing.T) {
	q := NewWFQ[int](256, DefaultWeights)
	res, err := NewResolver(File{Tenants: []Spec{
		{Name: "a", Key: "ka", Class: "interactive", Rate: 1e6},
		{Name: "b", Key: "kb", Class: "batch", Rate: 1e6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const perProducer = 400
	var wg sync.WaitGroup
	accepted := make([]int, NumClasses*2)
	for pi := 0; pi < NumClasses*2; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			c := Classes[pi%NumClasses]
			ten := res.Resolve("ka")
			if c == Batch {
				ten = res.Resolve("kb")
			}
			// Random entry sizes, each pushed with its size as the value so
			// the consumer can count items.
			rng := rand.New(rand.NewSource(int64(pi)))
			n := 0
			for i := 0; i < perProducer; i++ {
				size := 1 + rng.Intn(16)
				ten.Allow(float64(size))
				if err := q.Push(c, size, size); err == nil {
					n += size
				}
			}
			accepted[pi] = n
		}(pi)
	}

	// Reload thread: swap configs while producers resolve and consume.
	// Its own WaitGroup — it outlives the producers and stops only
	// after they finish.
	stopReload := make(chan struct{})
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		flip := false
		for {
			select {
			case <-stopReload:
				return
			default:
			}
			f := File{Tenants: []Spec{
				{Name: "a", Key: "ka", Class: "interactive", Rate: 1e6},
				{Name: "b", Key: "kb", Class: "batch", Rate: 1e6},
			}}
			if flip {
				f.Tenants[1].Rate = 5
				f.Tenants[1].MaxSessions = 2
			}
			flip = !flip
			if err := res.ReplaceConfig(f); err != nil {
				t.Errorf("ReplaceConfig: %v", err)
				return
			}
		}
	}()

	// Consumer: DRR pops (mixing in PopClass gathers) until producers
	// finish and the queue drains.
	done := make(chan struct{})
	var consumed int
	go func() {
		defer close(done)
		for {
			size, c, ok := q.Pop()
			if !ok {
				select {
				case _, open := <-q.Ready():
					if !open && q.Len() == 0 {
						return
					}
					continue
				case <-time.After(2 * time.Second):
					return
				}
			}
			consumed += size
			// Gather a few more of the same class, batcher-style.
			for g := 0; g < 3; g++ {
				if size, ok := q.PopClass(c); ok {
					consumed += size
				} else {
					break
				}
			}
		}
	}()

	wg2 := make(chan struct{})
	go func() { wg.Wait(); close(wg2) }()
	select {
	case <-wg2:
	case <-time.After(10 * time.Second):
		t.Fatal("producers wedged")
	}
	close(stopReload)
	reloadWG.Wait()
	q.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer wedged")
	}
	want := 0
	for _, n := range accepted {
		want += n
	}
	if consumed != want {
		t.Fatalf("consumed %d of %d accepted", consumed, want)
	}
}

// TestWFQPushCloseRace is the drain race: producers pushing in a loop
// while Close lands. A Push that passed the closed check must never
// send on the closed Ready channel (a panic fails the test binary),
// every Push returns nil, ErrClosed or ErrQueueFull, and everything
// admitted is still poppable afterwards. Run with -race.
func TestWFQPushCloseRace(t *testing.T) {
	const producers = 4
	for round := 0; round < 300; round++ {
		// Roomy queues so pushes keep being admitted (and keep
		// signalling) right up to the Close.
		q := NewWFQ[int](1<<12, DefaultWeights)
		var admitted [producers]int
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					switch err := q.Push(Classes[(p+i)%NumClasses], i, 1+i%4); err {
					case nil:
						admitted[p]++
					case ErrQueueFull:
					case ErrClosed:
						return
					default:
						t.Errorf("Push: unexpected error %v", err)
						return
					}
				}
			}(p)
		}
		close(start)
		for q.Len() < round%64 { // vary how far in the Close lands
			runtime.Gosched()
		}
		q.Close()
		wg.Wait()
		want := 0
		for _, n := range admitted {
			want += n
		}
		counts, _ := drainCount(q)
		got := 0
		for _, n := range counts {
			got += n
		}
		if got != want {
			t.Fatalf("round %d: admitted %d items, popped %d", round, want, got)
		}
	}
}
