package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// now is nanoseconds on the monotonic clock since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// cpuNanos is the process's user+sys CPU time (getrusage).
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hist is a log-linear latency histogram: 64 sub-buckets per power of
// two (under 1.6% bucket width). Quantiles interpolate linearly inside
// the bucket, so they do not snap to bucket edges.
type hist struct {
	counts [64 * 64]int64
	n      int64
}

const histSub = 64

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // v in [2^exp, 2^(exp+1))
	shift := exp - 6
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histLow is the smallest value in bucket i, and histWidth its width.
func histLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	return int64(i%histSub+histSub) << uint(shift)
}

func histWidth(i int) int64 {
	if i < histSub {
		return 1
	}
	return int64(1) << uint(i/histSub-1)
}

func (h *hist) add(v int64) {
	i := histIndex(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile (0..1) in the recorded unit.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return float64(histLow(i)) + frac*float64(histWidth(i))
		}
		cum += float64(c)
	}
	return float64(histLow(len(h.counts) - 1))
}

// windowHist keeps one latency histogram per window of the timed
// phase (by the sample's start time); a quantile is the median over
// windows of each window's quantile, so no single stretch of a run —
// a host stall, a GC burst — sets the figure.
type windowHist struct {
	from, width int64
	wins        []*hist
}

func (w *windowHist) add(start, v int64) {
	i := int((start - w.from) / w.width)
	if i < 0 {
		return
	}
	for len(w.wins) <= i {
		w.wins = append(w.wins, &hist{})
	}
	w.wins[i].add(v)
}

func (w *windowHist) quantile(q float64) float64 {
	var qs []float64
	for _, h := range w.wins {
		if h.n > 0 {
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs)
}

// median of a sample (not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile of exact samples by linear interpolation between ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// rateWindows turns a completion counter sampled by a run loop into
// per-window rates: a window closes once it spans at least width ns.
type rateWindows struct {
	width     int64
	start     int64
	startDone int64
	rates     []float64
}

func (w *rateWindows) begin(t, done int64) { w.start, w.startDone = t, done }

func (w *rateWindows) sample(t, done int64) {
	if t-w.start < w.width {
		return
	}
	w.rates = append(w.rates, float64(done-w.startDone)*1e9/float64(t-w.start))
	w.start, w.startDone = t, done
}

// tally counts operations and keeps the first few failure reasons.
type tally struct {
	attempted int64
	failed    int64
	reasons   []string
	// broken records a whole-run invariant that did not hold (counter
	// equalities and the like): the run is then not correct, beyond
	// any per-operation failure.
	broken []string
}

func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

func (t *tally) invariant(ok bool, format string, args ...interface{}) {
	if !ok {
		t.broken = append(t.broken, fmt.Sprintf(format, args...))
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects a run's metrics in both modes; the mode picks
// which set is printed.
type metricSet struct {
	endToEnd map[string]metric
	perLayer map[string]metric
}

func newMetricSet() *metricSet {
	return &metricSet{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (m *metricSet) e2e(name, unit string, v float64) { m.endToEnd[name] = metric{v, unit} }

func (m *metricSet) layer(name, unit string, v float64) { m.perLayer[name] = metric{v, unit} }

// Metric names every workload reports: end-to-end in untraced runs,
// per-layer in traced runs (BENCHMARK.json lists the same).
var (
	endToEndNames = []string{
		"setup_s", "fwd_pps", "cpu_ns_per_frame", "lat_p50_us", "ctrl_p50_us", "heap_live_mb",
	}
	perLayerNames = []string{
		"lang.parse_ms",
		"opt.xform_ms", "opt.fastclassifier_ms", "opt.devirtualize_ms", "opt.fuse_ms", "opt.flowcache_ms",
		"opt.flowcache_hit_ratio",
		"classifier.steps_per_frame", "classifier.match_ns",
		"core.build_ms", "core.dataplane_ns_per_frame", "core.idle_round_ratio", "core.syncdo_wait_us",
		"io.rx_ns_per_frame", "io.tx_ns_per_frame",
		"packet.allocs_per_frame", "packet.alloc_bytes_per_frame",
		"runtime.gc_cycles", "runtime.gc_pause_us",
		"elements.queue_highwater",
		"mgmt.create_us", "mgmt.swap_us", "mgmt.delete_us", "mgmt.write_us", "mgmt.report_us",
		"mgmt.serve_us", "mgmt.transport_us", "mgmt.config_cache_hit_ratio", "mgmt.shared_programs",
		"harness.recv_ns_per_frame", "harness.send_ns_per_frame",
	}
)

// missing lists the metrics a run of the given mode did not report.
func (m *metricSet) missing(trace bool) []string {
	names, got := endToEndNames, m.endToEnd
	if trace {
		names, got = perLayerNames, m.perLayer
	}
	var out []string
	for _, n := range names {
		if _, ok := got[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// writeJSON writes v as indented JSON into dir/name, creating dir.
func writeJSON(dir, name string, v interface{}) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
