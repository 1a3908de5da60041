//go:build !linux

package tensor

func adviseHuge([]byte) {}

// HugePageBytes reports how many bytes of x the kernel backs with
// transparent huge pages; off Linux it is always 0.
func HugePageBytes([]float32) int64 { return 0 }

// thpMode is "" off Linux: there is no THP mode to report.
func thpMode() string { return "" }
