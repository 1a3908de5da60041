package testkit

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Mapping is one entry of /proc/self/smaps.
type Mapping struct {
	Lo, Hi        uintptr  // address range [Lo, Hi)
	Flags         []string // VmFlags: "hg" marks MADV_HUGEPAGE advice
	RssBytes      int64    // Rss: bytes resident in memory
	AnonHugeBytes int64    // AnonHugePages: bytes the kernel put on huge pages
}

// Mappings parses this process's /proc/self/smaps: one entry per line
// of /proc/self/maps. It fails off Linux.
func Mappings() ([]Mapping, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Mapping
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		key := fields[0]
		if !strings.HasSuffix(key, ":") {
			start, end, _ := strings.Cut(key, "-")
			lo, err1 := strconv.ParseUint(start, 16, 64)
			hi, err2 := strconv.ParseUint(end, 16, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("testkit: smaps header %q", sc.Text())
			}
			out = append(out, Mapping{Lo: uintptr(lo), Hi: uintptr(hi)})
			continue
		}
		if len(out) == 0 {
			continue
		}
		m := &out[len(out)-1]
		switch key {
		case "VmFlags:":
			m.Flags = fields[1:]
		case "Rss:", "AnonHugePages:":
			if len(fields) > 1 {
				kb, _ := strconv.ParseInt(fields[1], 10, 64)
				if key == "Rss:" {
					m.RssBytes = kb << 10
				} else {
					m.AnonHugeBytes = kb << 10
				}
			}
		}
	}
	return out, sc.Err()
}

// MappingAt returns the mapping that holds addr.
func MappingAt(addr uintptr) (Mapping, error) {
	ms, err := Mappings()
	if err != nil {
		return Mapping{}, err
	}
	for _, m := range ms {
		if m.Lo <= addr && addr < m.Hi {
			return m, nil
		}
	}
	return Mapping{}, fmt.Errorf("testkit: no mapping holds %#x", addr)
}
