// Package network provides the in-process message fabric connecting the
// simulated blockchain nodes and clients. It replaces the paper's physical
// 1 Gbit/s data-center LAN plus netem: every message sent through a
// Transport is delivered asynchronously to the destination endpoint after a
// delay drawn from a configurable LatencyModel, and links can be cut or
// degraded to emulate partitions and WAN loss.
//
// Delivery is scheduled by one queue — a ready list for messages due at once
// and a heap by ready time for the rest — with one delivery event
// (delivery.go), all of it under the Transport's one lock. Messages on the
// same directed link are delivered in send order after their latency delay
// (the per-connection FIFO property of the TCP links the real deployments
// rely on); messages on different links order by ready timestamp. Under
// clock.AutoVirtual the whole fabric is deterministic: latency and loss
// draws come from seeded per-link sources and delivery order is exactly
// (ready time, send order).
package network

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// LatencyModel decides the one-way delivery delay of each message on a link.
type LatencyModel interface {
	// Delay returns the delivery delay for the next message from src to dst.
	Delay(src, dst string) time.Duration
}

// ZeroLatency delivers every message immediately. It models the paper's
// baseline single-datacenter deployment, where LAN latency is negligible
// next to consensus and block-formation delays.
type ZeroLatency struct{}

var _ LatencyModel = ZeroLatency{}

// Delay implements LatencyModel.
func (ZeroLatency) Delay(_, _ string) time.Duration { return 0 }

// ConstantLatency delays every message by a fixed duration.
type ConstantLatency struct{ D time.Duration }

var _ LatencyModel = ConstantLatency{}

// Delay implements LatencyModel.
func (c ConstantLatency) Delay(_, _ string) time.Duration { return c.D }

// NormalLatency draws delays from a normal distribution, reproducing the
// paper's netem configuration (§5.8.1: mu = 12 ms, sigma = 2 ms, equidistant
// servers). Draws are truncated at zero. A deterministic seed makes
// experiment runs reproducible.
type NormalLatency struct {
	mu    sync.Mutex
	rng   *rand.Rand
	Mu    time.Duration
	Sigma time.Duration
}

var _ LatencyModel = (*NormalLatency)(nil)

// NewNormalLatency constructs the netem-equivalent model.
func NewNormalLatency(mu, sigma time.Duration, seed int64) *NormalLatency {
	return &NormalLatency{
		rng:   rand.New(rand.NewSource(seed)),
		Mu:    mu,
		Sigma: sigma,
	}
}

// PaperNetem returns the exact latency emulation used in the paper's
// Figure 4 and Figure 5 experiments: normal distribution with mu = 12 ms and
// sigma = 2 ms on every link.
func PaperNetem(seed int64) *NormalLatency {
	return NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, seed)
}

// Delay implements LatencyModel.
func (n *NormalLatency) Delay(_, _ string) time.Duration {
	n.mu.Lock()
	z := n.rng.NormFloat64()
	n.mu.Unlock()
	d := time.Duration(float64(n.Mu) + z*float64(n.Sigma))
	if d < 0 {
		return 0
	}
	return d
}

// AsymmetricLatency wires different models per directed link, falling back
// to a default. It supports topologies where, e.g., client→node links are
// local but node→node links cross the emulated WAN.
type AsymmetricLatency struct {
	mu       sync.RWMutex
	links    map[linkKey]LatencyModel
	fallback LatencyModel
}

type linkKey struct{ src, dst string }

var _ LatencyModel = (*AsymmetricLatency)(nil)

// NewAsymmetricLatency builds a per-link model with the given fallback.
func NewAsymmetricLatency(fallback LatencyModel) *AsymmetricLatency {
	return &AsymmetricLatency{
		links:    make(map[linkKey]LatencyModel),
		fallback: fallback,
	}
}

// SetLink overrides the model for the directed link src→dst.
func (a *AsymmetricLatency) SetLink(src, dst string, m LatencyModel) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.links[linkKey{src, dst}] = m
}

// Delay implements LatencyModel.
func (a *AsymmetricLatency) Delay(src, dst string) time.Duration {
	a.mu.RLock()
	m, ok := a.links[linkKey{src, dst}]
	a.mu.RUnlock()
	if ok {
		return m.Delay(src, dst)
	}
	return a.fallback.Delay(src, dst)
}

// JitterStats summarises observed delays, used by tests to validate that the
// normal model produces the configured distribution.
type JitterStats struct {
	N    int
	Mean time.Duration
	Std  time.Duration
}

// MeasureLatency samples a model n times and reports mean and standard
// deviation.
func MeasureLatency(m LatencyModel, n int) JitterStats {
	if n <= 0 {
		return JitterStats{}
	}
	samples := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		d := float64(m.Delay("a", "b"))
		samples[i] = d
		sum += d
	}
	mean := sum / float64(n)
	var sq float64
	for _, s := range samples {
		sq += (s - mean) * (s - mean)
	}
	std := math.Sqrt(sq / float64(n))
	return JitterStats{N: n, Mean: time.Duration(mean), Std: time.Duration(std)}
}
