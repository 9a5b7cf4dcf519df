package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// host is the block every output starts with: what the figures were
// measured on.
type host struct {
	Nproc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	L3            string `json:"l3"`
	StoreFS       string `json:"store_fs"`
	Seed          uint64 `json:"seed"`
	MetricsArmed  bool   `json:"server_metrics_armed"`
	Workload      string `json:"workload"`
	Trace         bool   `json:"trace"`
	WindowSeconds int    `json:"window_seconds"`
}

func hostInfo(seed uint64) host {
	return host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		L3:         l3Size(),
		StoreFS:    memfdFSType(),
		Seed:       seed,
		// setup always arms netkv.NewServerMetrics and wal.NewMetrics.
		MetricsArmed: true,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l3Size reads the last-level cache size of CPU 0 from sysfs.
func l3Size() string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(level)) == "3" {
			if size, err := os.ReadFile(dir + "size"); err == nil {
				return strings.TrimSpace(string(size))
			}
		}
	}
	return "unknown"
}

// fsTypeName names a statfs filesystem magic number.
func fsTypeName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x958458f6:
		return "hugetlbfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
