package tensor

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// adviseHuge first drops whatever pages of b are resident
// (MADV_DONTNEED), then advises b onto huge pages. The runtime may
// have faulted b in on 4 KB pages already, by clearing a reused heap
// block before returning it; advice alone would leave those pages as
// they are. b is all zeros and unwritten, and a dropped page of private
// anonymous memory reads back as zeros, so the drop changes no value;
// the first write then faults b in on huge pages.
func adviseHuge(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
}

// HugePageBytes reports how many bytes of x the kernel backs with
// transparent huge pages: the AnonHugePages of every mapping in
// /proc/self/smaps that overlaps x, capped at x's size. A mapping that
// reaches past x counts whole, so where x shares a mapping with other
// huge-page data this is an upper bound. It is 0 where smaps cannot be
// read, and off Linux.
func HugePageBytes(x []float32) int64 {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0
	}
	defer f.Close()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	hi := lo + uintptr(len(x))*4
	var total int64
	overlaps := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if !strings.HasSuffix(fields[0], ":") { // a mapping's header: start-end perms ...
			start, end, ok := strings.Cut(fields[0], "-")
			a, errA := strconv.ParseUint(start, 16, 64)
			b, errB := strconv.ParseUint(end, 16, 64)
			overlaps = ok && errA == nil && errB == nil && uintptr(a) < hi && lo < uintptr(b)
			continue
		}
		if overlaps && fields[0] == "AnonHugePages:" && len(fields) > 1 {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			total += kb << 10
		}
	}
	return min(total, int64(hi-lo))
}

// thpMode is the bracketed word of
// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise" or
// "never"), or "unavailable" on a kernel without THP.
func thpMode() string {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		return "unavailable"
	}
	_, rest, ok := strings.Cut(string(b), "[")
	mode, _, ok2 := strings.Cut(rest, "]")
	if !ok || !ok2 {
		return "unavailable"
	}
	return mode
}
