package tensor

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Transparent huge pages for the classifier weights. The exact gather
// reads m scattered rows of W (at the amazon-670k shape 13 401 rows of
// 2 KB, about 100 KB apart, out of 1.37 GB), so on 4 KB pages almost
// every row costs a TLB miss and a page walk; on 2 MiB pages one TLB
// entry covers about 20 candidate rows. The screener's INT4 image is
// not advised: the screen streams it in order, where the hardware
// prefetcher already hides the walks.
//
// Linux only backs a mapping with huge pages at fault time when THP is
// "always", or "madvise" and the range carries MADV_HUGEPAGE (VmFlags
// "hg" in /proc/self/smaps); Go never asks. AdviseHugePages asks, on
// the 2 MiB-aligned interior of the slice. Advice only changes how
// pages not yet touched are faulted in, and the runtime clears a whole
// new allocation before returning it when the heap arena it starts in
// has held an object above its start (a reused block): that clear
// faults it in on 4 KB pages before it can be advised. So
// AdviseHugePages first drops the interior's resident pages
// (MADV_DONTNEED) and then advises it; the first write after that
// faults it in on huge pages, fresh block or reused. An interior that
// lies inside a range advised before in this process is left alone:
// the Go heap never unmaps memory, so that range is still advised, and
// its pages came in as huge pages wherever the kernel had them free;
// dropping them would only make the kernel clear new ones.

const (
	hugePageBytes = 2 << 20
	// minHugeBytes is the smallest slice that is advised: below four
	// huge pages the aligned interior is a small share of the slice,
	// and each advised range splits a heap mapping in two or three.
	minHugeBytes = 4 * hugePageBytes
)

// AdviseHugePages asks the kernel to back the 2 MiB-aligned interior
// of x with transparent huge pages: it drops the interior's pages
// (madvise MADV_DONTNEED), then advises it (MADV_HUGEPAGE), unless the
// interior lies inside a range it advised before.
// Precondition: x is a fresh allocation, all zeros, and nothing has
// written to it yet — a dropped page reads back as zeros, so only then
// does the drop leave every value as it was. Slices under 8 MiB are
// left alone. It is advice: errors are ignored, and on a host whose THP
// mode is "never", or off Linux, it does nothing.
func AdviseHugePages(x []float32) {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	off, n := hugeSpan(base, uintptr(len(x))*4)
	if n == 0 || !firstAdvice(base+off, base+off+n) {
		return
	}
	adviseHuge(unsafe.Slice((*byte)(unsafe.Pointer(&x[off/4])), n))
}

// advised is the union of the ranges AdviseHugePages has advised in
// this process, as sorted, disjoint, non-touching [lo, hi) spans. It
// is package state because what it mirrors is: the advice stays on the
// process's heap mappings for as long as the process lives.
var advised struct {
	sync.Mutex
	spans [][2]uintptr
}

// firstAdvice adds [lo, hi) to advised and reports whether any of it
// was not there before.
func firstAdvice(lo, hi uintptr) bool {
	advised.Lock()
	defer advised.Unlock()
	s := advised.spans
	i := sort.Search(len(s), func(i int) bool { return s[i][1] >= lo })
	if i < len(s) && s[i][0] <= lo && hi <= s[i][1] {
		return false
	}
	j := i
	for ; j < len(s) && s[j][0] <= hi; j++ {
		lo, hi = min(lo, s[j][0]), max(hi, s[j][1])
	}
	advised.spans = slices.Replace(s, i, j, [2]uintptr{lo, hi})
	return true
}

// hugeSpan returns the 2 MiB-aligned interior of the n bytes at base
// as a byte offset from base and a length; the length is 0 when n is
// under minHugeBytes.
func hugeSpan(base, n uintptr) (off, size uintptr) {
	if n < minHugeBytes {
		return 0, 0
	}
	lo := (base + hugePageBytes - 1) &^ (hugePageBytes - 1)
	hi := (base + n) &^ (hugePageBytes - 1)
	return lo - base, hi - lo
}

// HugePageSummary is the one-line account of x that a server logs
// after loading its weights: its size, how much of it the kernel put
// on huge pages, and the host's THP mode. It is "" off Linux.
func HugePageSummary(x []float32) string {
	mode := thpMode()
	if mode == "" {
		return ""
	}
	return fmt.Sprintf("%.1f MB, %.1f MB on huge pages (THP %s)",
		float64(len(x))*4/1e6, float64(HugePageBytes(x))/1e6, mode)
}
