package tensor

import (
	"fmt"
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
// pages not yet touched are faulted in: a fresh allocation (memory the
// heap has just mapped from the OS) gets huge pages as its first write
// faults it in, while memory the heap reuses was touched before and is
// collapsed to huge pages only later, if at all, by khugepaged. The
// runtime also clears a whole new allocation before returning it when
// the first 64 MB heap arena it starts in has held an object above its
// start; that clear faults it in on 4 KB pages before it can be advised.

const (
	hugePageBytes = 2 << 20
	// minHugeBytes is the smallest slice that is advised: below four
	// huge pages the aligned interior is a small share of the slice,
	// and each advised range splits a heap mapping in two or three.
	minHugeBytes = 4 * hugePageBytes
)

// AdviseHugePages asks the kernel to back the 2 MiB-aligned interior
// of x with transparent huge pages (madvise MADV_HUGEPAGE). Call it on
// a fresh allocation before anything writes to it. Slices under 8 MiB
// are left alone. It is advice: errors are ignored, and on a host whose
// THP mode is "never", or off Linux, it does nothing.
func AdviseHugePages(x []float32) {
	off, n := hugeSpan(uintptr(unsafe.Pointer(unsafe.SliceData(x))), uintptr(len(x))*4)
	if n == 0 {
		return
	}
	adviseHuge(unsafe.Slice((*byte)(unsafe.Pointer(&x[off/4])), n))
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
