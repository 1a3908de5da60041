package tensor

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"enmc/internal/testkit"
)

// TestHugeSpanTable: the advised range is 2 MiB-aligned, never leaves
// the slice, and is empty below four huge pages.
func TestHugeSpanTable(t *testing.T) {
	const mb = 1 << 20
	for _, base := range []uintptr{0x7f0000000000, 0x7f0000000000 + 4, 0x7f0000000000 + hugePageBytes - 4,
		0x7f0000000000 + hugePageBytes/2, 0xc000400000 + 4096} {
		for _, n := range []uintptr{0, 4, mb, 2 * mb, 6 * mb, 8*mb - 4, 8 * mb, 8*mb + 4, 10 * mb, 32*mb + 12, 1370 * mb} {
			off, size := hugeSpan(base, n)
			lo, hi := base+off, base+off+size
			switch {
			case n < minHugeBytes && size != 0:
				t.Errorf("base %#x n %d: advised %d bytes below the %d-byte floor", base, n, size, minHugeBytes)
			case n < minHugeBytes:
			case size == 0:
				t.Errorf("base %#x n %d: nothing advised", base, n)
			case lo < base || hi > base+n:
				t.Errorf("base %#x n %d: advised [%#x,%#x) leaves the slice", base, n, lo, hi)
			case lo%hugePageBytes != 0 || size%hugePageBytes != 0:
				t.Errorf("base %#x n %d: advised [%#x,%#x) not 2 MiB-aligned", base, n, lo, hi)
			case size < n-2*hugePageBytes:
				t.Errorf("base %#x n %d: advised %d bytes, less than the aligned interior", base, n, size)
			}
		}
	}
}

// TestFirstAdvice: a range is a first advice unless one earlier range,
// or a run of touching or overlapping ones, covers it.
func TestFirstAdvice(t *testing.T) {
	advised.Lock()
	saved := advised.spans
	advised.spans = nil
	advised.Unlock()
	t.Cleanup(func() {
		advised.Lock()
		advised.spans = saved
		advised.Unlock()
	})
	for _, c := range []struct {
		lo, hi uintptr
		first  bool
	}{
		{10, 20, true},
		{10, 20, false},
		{12, 18, false},
		{30, 40, true},
		{15, 35, true}, // bridges the two: [10, 40)
		{10, 40, false},
		{40, 50, true}, // touches: [10, 50)
		{11, 49, false},
		{5, 10, true},
		{5, 50, false},
		{60, 70, true},
		{45, 65, true},
		{5, 70, false},
		{4, 70, true},
		{0, 71, true},
	} {
		if got := firstAdvice(c.lo, c.hi); got != c.first {
			t.Fatalf("firstAdvice(%d, %d) = %v, want %v (spans %v)", c.lo, c.hi, got, c.first, advised.spans)
		}
	}
	if want := [][2]uintptr{{0, 71}}; !slices.Equal(advised.spans, want) {
		t.Fatalf("spans %v, want %v", advised.spans, want)
	}
}

func addrOf(x []float32) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(x))) }

// TestNewMatrixAdvisesHugePages: a 32 MiB matrix lies in a mapping
// whose VmFlags carry "hg". How much of it the kernel actually put on
// huge pages depends on the THP mode and on fragmentation, so that is
// only logged.
func TestNewMatrixAdvisesHugePages(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("transparent huge pages are Linux only")
	}
	m := NewMatrix(8192, 1024)
	got, err := testkit.MappingAt(addrOf(m.Data[len(m.Data)/2:]))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(got.Flags, "hg") {
		t.Fatalf("mapping [%#x,%#x) holding a 32 MiB matrix has VmFlags %v, want hg", got.Lo, got.Hi, got.Flags)
	}
	for i := range m.Data {
		m.Data[i] = 1
	}
	// HugePageBytes against testkit's parser, read on both sides of it
	// in case khugepaged collapses a page in between.
	size := int64(len(m.Data)) * 4
	lo, hi := addrOf(m.Data), addrOf(m.Data)+uintptr(size)
	want := func() int64 {
		ms, err := testkit.Mappings()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, g := range ms {
			if g.Lo < hi && lo < g.Hi {
				sum += g.AnonHugeBytes
			}
		}
		return min(sum, size)
	}
	w0 := want()
	hp := HugePageBytes(m.Data)
	w1 := want()
	if hp < min(w0, w1) || hp > max(w0, w1) {
		t.Fatalf("HugePageBytes = %d, smaps says %d then %d", hp, w0, w1)
	}
	t.Logf("THP %s: %d of %d bytes on huge pages; %s", thpMode(), hp, len(m.Data)*4, HugePageSummary(m.Data))
}

// TestNewMatrixDropsReusedPages is the reused-block case: a block of
// the same size is written and dropped first, so the runtime can hand
// its pages back and clear them — faulting them in on 4 KB pages —
// before NewMatrix advises them. The advised interior must then hold no
// resident page until the first write, which faults it in on huge
// pages where THP allows (logged, as that also depends on
// fragmentation).
func TestNewMatrixDropsReusedPages(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("transparent huge pages are Linux only")
	}
	const rows, cols = 8192, 1024 // 32 MiB
	// What earlier tests dropped is freed first, so that old is placed
	// among it and NewMatrix reuses old's pages or theirs; forgetting
	// what they advised makes every range a first advice.
	runtime.GC()
	advised.Lock()
	advised.spans = nil
	advised.Unlock()
	old := make([]float32, rows*cols)
	for i := range old {
		old[i] = 1
	}
	oldAddr := addrOf(old)
	runtime.KeepAlive(old)
	old = nil
	runtime.GC()
	m := NewMatrix(rows, cols)
	off, n := hugeSpan(addrOf(m.Data), uintptr(len(m.Data))*4)
	lo, hi := addrOf(m.Data)+off, addrOf(m.Data)+off+n
	// The mappings that hold the interior may reach past it (a
	// neighbour advised earlier can share its VmFlags and so its
	// mapping): what they hold outside bounds what may be resident.
	ms, err := testkit.Mappings()
	if err != nil {
		t.Fatal(err)
	}
	var rss, outside int64
	for _, g := range ms {
		if g.Lo < hi && lo < g.Hi {
			rss += g.RssBytes
			outside += int64(g.Hi-g.Lo) - int64(min(g.Hi, hi)-max(g.Lo, lo))
		}
	}
	if rss > outside {
		t.Fatalf("advised interior [%#x,%#x) of a reused block (old block at %#x): %d bytes resident before the first write, at most %d allowed",
			lo, hi, oldAddr, rss, outside)
	}
	for i := range m.Data {
		m.Data[i] = 2
	}
	t.Logf("at the dropped block's address: %v; THP %s: %d of %d bytes on huge pages after the first write",
		oldAddr == addrOf(m.Data), thpMode(), HugePageBytes(m.Data), len(m.Data)*4)
}

// TestHugePageAdviceKeepsMappingsBounded: advice splits a heap mapping
// where it starts and ends, and the heap reuses freed ranges, so
// allocating and dropping advised matrices must not grow the mapping
// count without bound. Only mappings that overlap or touch a range
// advised by the end of the loop are counted: every piece a split
// leaves does, while mappings elsewhere in the process (the race
// runtime's, say) cannot be split by the advice and are not its cost.
// Each matrix is collected before the next is made, so the heap does
// reuse its range. Without that, a collection that lags behind the
// allocations (a loaded -race run) leaves a dozen matrices live at
// once, each advised at its own address, and the count measures how
// far the heap grew, not what the advice costs.
func TestHugePageAdviceKeepsMappingsBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("transparent huge pages are Linux only")
	}
	mappings := func() []testkit.Mapping {
		ms, err := testkit.Mappings()
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	nearAdvised := func(ms []testkit.Mapping) int {
		advised.Lock()
		defer advised.Unlock()
		n := 0
		for _, g := range ms {
			if slices.ContainsFunc(advised.spans, func(s [2]uintptr) bool { return g.Lo <= s[1] && s[0] <= g.Hi }) {
				n++
			}
		}
		return n
	}
	runtime.GC()
	ms := mappings()
	for i := 0; i < 1000; i++ {
		m := NewMatrix(2048+256*(i%5), 1024) // 8–12 MiB
		m.Data[len(m.Data)-1] = 1
		runtime.GC()
	}
	runtime.GC()
	before, after := nearAdvised(ms), nearAdvised(mappings())
	t.Logf("mappings at an advised range: %d before, %d after 1000 advised matrices", before, after)
	if after > before+16 {
		t.Fatalf("mappings at an advised range grew from %d to %d over 1000 advised matrices", before, after)
	}
}
