package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// envRecord travels with every result, so numbers from different
// sandboxes are never compared silently. Latencies are this sandbox's,
// not a device's: reads are mostly served from the OS cache and an
// fsync may be cheap.
type envRecord struct {
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	Clients     int     `json:"clients"`
	DirFS       string  `json:"dir_fs"`
	FlushPolicy string  `json:"flush_policy"`
	Latency     string  `json:"latency"`
}

const flushPolicy = "every commit fsynced before it is acknowledged (group commit); in-memory workloads write no log"

func newEnv(seed uint64, scale float64, dir string) envRecord {
	return envRecord{
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commitID(),
		Seed:        seed,
		Scale:       scale,
		Clients:     numClients(),
		DirFS:       fsType(dir),
		FlushPolicy: flushPolicy,
		Latency:     "sandbox (OS cache, shared cores), not a device",
	}
}

// commitID is the VCS revision the binary was built from, when the
// build saw one; the driver's checkouts are not git repositories.
func commitID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func mustMkdir(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
}
