package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"quicscan/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtNames are the runtime/metrics samples a probe reads.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// probe is a point-in-time reading of the process counters the
// benchmark differences: wall clock, CPU, allocated bytes, GC CPU and
// the scheduler-latency histogram.
type probe struct {
	wall   time.Time
	cpu    time.Duration
	alloc  uint64
	gcCPU  float64
	allCPU float64
	sched  *metrics.Float64Histogram
}

func readProbe() probe {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return probe{
		wall:   time.Now(),
		cpu:    cpuTime(),
		alloc:  s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
		sched:  s[3].Value.Float64Histogram(),
	}
}

// window is the difference between two probes.
type window struct {
	wall, cpu      time.Duration
	alloc          uint64
	gcShare        float64
	schedP99Micros float64
}

func since(p probe) window {
	q := readProbe()
	w := window{wall: q.wall.Sub(p.wall), cpu: q.cpu - p.cpu, alloc: q.alloc - p.alloc}
	if d := q.allCPU - p.allCPU; d > 0 {
		w.gcShare = (q.gcCPU - p.gcCPU) / d
	}
	w.schedP99Micros = histDeltaQuantile(p.sched, q.sched, 0.99) * 1e6
	return w
}

// histDeltaQuantile estimates a quantile of the samples recorded
// between two readings of a runtime/metrics histogram, taking each
// bucket's upper bound (its lower bound for the open top bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapPeak samples the live heap (as marked by the last GC cycle)
// every few milliseconds until stop, keeping the largest reading. The
// live figure, unlike total heap size, does not depend on where
// between two GC cycles a sample falls.
type heapPeak struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	max   uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.max = max(h.max, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapPeak) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.max) / (1 << 20)
}

// counters is a telemetry snapshot the workloads difference.
type counters struct{ telemetry.Snapshot }

func snapCounters() counters { return counters{telemetry.Default().Snapshot()} }

// delta returns how much a counter grew since the earlier snapshot.
func (c counters) delta(before counters, name string) float64 {
	return float64(c.Counters[name] - before.Counters[name])
}

// histDelta returns the histogram growth since the earlier snapshot.
func (c counters) histDelta(before counters, name string) telemetry.HistogramSnapshot {
	a, b := before.Histograms[name], c.Histograms[name]
	out := telemetry.HistogramSnapshot{Bounds: b.Bounds, Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	out.Counts = make([]uint64, len(b.Counts))
	for i := range b.Counts {
		out.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			out.Counts[i] -= a.Counts[i]
		}
	}
	return out
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// provenance identifies what produced a result.
func provenance(o options) map[string]any {
	commit, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"commit_dirty":  modified,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes every Go source and module file under root, so
// a result names the code it measured even where no commit id is
// available (a checkout that is not a git repository).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
