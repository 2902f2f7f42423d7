package coconut

import (
	"math"
	"sort"

	"github.com/coconut-bench/coconut/internal/systems"
)

// Gauge indices into a GaugeSample, in registry order. Every windowed
// queue/resource gauge the framework samples is listed here; report
// renderers and the bench ledger iterate GaugeNames rather than
// hard-coding columns, so adding a gauge means adding an index, a name,
// and a field mapping in sampleGauges — nothing else.
const (
	GaugeHubInflight = iota
	GaugeMempoolDepth
	GaugeGateBacklog
	GaugeWALLiveBytes
	GaugeWALUnsynced
	GaugeNetPending
	NumGauges
)

// GaugeNames holds the canonical gauge names in index order. These are the
// names the bench ledger records (coconut.gauge_p95.<name>) and
// coconut-sweep -list prints.
var GaugeNames = [NumGauges]string{
	GaugeHubInflight:  "hubInflight",
	GaugeMempoolDepth: "mempoolDepth",
	GaugeGateBacklog:  "gateBacklog",
	GaugeWALLiveBytes: "walLiveBytes",
	GaugeWALUnsynced:  "walUnsynced",
	GaugeNetPending:   "netPending",
}

// GaugeSample is one sampling instant's queue/resource gauge values, in
// GaugeNames order.
type GaugeSample [NumGauges]float64

// sampleGauges maps a driver's queue snapshot onto the gauge registry.
func sampleGauges(qs systems.QueueStats) GaugeSample {
	return GaugeSample{
		GaugeHubInflight:  float64(qs.HubInflight),
		GaugeMempoolDepth: float64(qs.MempoolDepth),
		GaugeGateBacklog:  float64(qs.GateBacklog),
		GaugeWALLiveBytes: float64(qs.WALLiveBytes),
		GaugeWALUnsynced:  float64(qs.WALUnsynced),
		GaugeNetPending:   float64(qs.NetPending),
	}
}

// GaugeSeries is the windowed queue/resource telemetry of one run: one
// GaugeSample per Timeline window, sampled at each window boundary. It is
// the only sanctioned carrier for live gauge readings — instrumented
// packages report through Driver.QueueSnapshot instead of keeping ad-hoc
// counters (enforced by coconut-vet's telemetry analyzer).
type GaugeSeries []GaugeSample

// Max returns the largest value gauge g reached across the series.
func (s GaugeSeries) Max(g int) float64 {
	max := 0.0
	for _, smp := range s {
		if smp[g] > max {
			max = smp[g]
		}
	}
	return max
}

// Mean returns gauge g's mean across the series (zero when empty).
func (s GaugeSeries) Mean(g int) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, smp := range s {
		sum += smp[g]
	}
	return sum / float64(len(s))
}

// Quantile returns gauge g's value at quantile q in [0, 1] across the
// series' windows (zero when empty).
func (s GaugeSeries) Quantile(g int, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	vals := make([]float64, len(s))
	for i, smp := range s {
		vals[i] = smp[g]
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}

// Empty reports whether every sample of every gauge is zero (also true for
// a nil series). Reports skip the queue-growth section when nothing was
// collected.
func (s GaugeSeries) Empty() bool {
	for _, smp := range s {
		for _, v := range smp {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// combineSeries folds per-repetition gauge series into one element-wise
// mean series, averaging each window over the repetitions that sampled it
// (repetitions may trim trailing windows differently). Nil when no
// repetition collected a series.
func combineSeries(reps []RepetitionResult) GaugeSeries {
	maxLen := 0
	for _, r := range reps {
		if len(r.Series) > maxLen {
			maxLen = len(r.Series)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make(GaugeSeries, maxLen)
	for w := 0; w < maxLen; w++ {
		n := 0
		var sum GaugeSample
		for _, r := range reps {
			if w >= len(r.Series) {
				continue
			}
			n++
			for g := 0; g < NumGauges; g++ {
				sum[g] += r.Series[w][g]
			}
		}
		if n > 0 {
			for g := 0; g < NumGauges; g++ {
				sum[g] /= float64(n)
			}
		}
		out[w] = sum
	}
	return out
}
