package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// epoch is the benchmark's one clock origin: client timings, release
// timings and trace spans are all nanoseconds since it, so they can be
// compared with one another.
var epoch = time.Now()

// clock returns monotonic nanoseconds since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place. It returns 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// nsTo converts nanosecond samples to float64 in the given unit.
func nsTo(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// median returns the middle value of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a reading of the Go runtime counters a window reports
// as deltas.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return runtimeSample{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
		totalCPU:     samples[3].Value.Float64(),
	}
}

// failures tallies failed operations by reason.
type failures struct {
	mu      sync.Mutex
	reasons map[string]int64
}

func (f *failures) add(reason string, n int64) {
	if n == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.reasons == nil {
		f.reasons = make(map[string]int64)
	}
	f.reasons[reason] += n
}

func (f *failures) total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, v := range f.reasons {
		n += v
	}
	return n
}

// cpuInfo reads the CPU model and the SHA-NI / AVX-512 flags from
// /proc/cpuinfo (Linux); missing files leave the fields empty.
func cpuInfo() (model string, shaNI, avx512 bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "", false, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			for _, fl := range strings.Fields(val) {
				shaNI = shaNI || fl == "sha_ni"
				avx512 = avx512 || fl == "avx512f"
			}
			return model, shaNI, avx512
		}
	}
	return model, shaNI, avx512
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}

// provenance describes the machine and settings a result was measured
// under.
func provenance(o options, walDir string) map[string]any {
	model, shaNI, avx512 := cpuInfo()
	return map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"seconds":        o.seconds.Seconds(),
		"trace":          o.trace,
		"paced_frames_s": pacedFramesPerSecond,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      model,
		"sha_ni":         shaNI,
		"avx512f":        avx512,
		"go_version":     runtime.Version(),
		"wal_fs":         fsType(walDir),
		"glimmerd_flags": glimmerdFlags(),
	}
}
