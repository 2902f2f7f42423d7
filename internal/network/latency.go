// Package network provides the in-process message fabric connecting the
// simulated blockchain nodes and clients. It replaces the paper's physical
// 1 Gbit/s data-center LAN plus netem: every message sent through a
// Transport is delivered asynchronously to the destination endpoint after a
// delay drawn from a configurable LatencyModel, and links can be degraded
// to emulate slow, lossy WAN links (a loss of 1 cuts one off).
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
