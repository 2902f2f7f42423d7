// Package mempool implements the transaction admission queues of the
// simulated systems. Two disciplines matter for reproducing the paper's
// findings:
//
//   - Bounded with rejection (Sawtooth): "the management of a queue that
//     rejects new incoming transactions if the occupancy of the queue is too
//     high" (paper §5.6) — the dominant cause of Sawtooth's lost
//     transactions.
//   - Unbounded accumulate (Quorum): transactions are queued without
//     backpressure; under a low istanbul.blockperiod with high load "the
//     queue is no longer processed" (paper §5.5), a liveness violation the
//     quorum system package models on top of this pool.
package mempool

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by bounded pools on rejection. Clients are
// expected to re-send (Sawtooth semantics); COCONUT counts these as lost.
var ErrQueueFull = errors.New("mempool: queue full, transaction rejected")

// Pool is a FIFO admission queue of opaque items (transactions or batches).
type Pool[T any] struct {
	mu       sync.Mutex
	items    []T
	capacity int // 0 = unbounded

	rejected uint64
	admitted uint64
}

// NewBounded creates a pool that rejects when len(items) == capacity.
func NewBounded[T any](capacity int) *Pool[T] {
	return &Pool[T]{capacity: capacity}
}

// NewUnbounded creates a pool that always admits.
func NewUnbounded[T any]() *Pool[T] {
	return &Pool[T]{}
}

// Add admits one item or rejects it.
func (p *Pool[T]) Add(item T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity > 0 && len(p.items) >= p.capacity {
		p.rejected++
		return ErrQueueFull
	}
	p.items = append(p.items, item)
	p.admitted++
	return nil
}

// Take removes and returns up to max items in FIFO order. max <= 0 drains
// everything.
func (p *Pool[T]) Take(max int) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.items)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	copy(out, p.items[:n])
	remaining := copy(p.items, p.items[n:])
	for i := remaining; i < len(p.items); i++ {
		var zero T
		p.items[i] = zero
	}
	p.items = p.items[:remaining]
	return out
}

// Remove drops every queued item drop reports true for, in one pass: the
// rest keep their FIFO order and the admission counters do not move. drop
// runs under the pool's lock and must not call back into the pool.
func (p *Pool[T]) Remove(drop func(T) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.items[:0]
	for _, it := range p.items {
		if !drop(it) {
			kept = append(kept, it)
		}
	}
	clear(p.items[len(kept):])
	p.items = kept
}

// Len returns the queue occupancy.
func (p *Pool[T]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

// Stats reports lifetime admission counters.
func (p *Pool[T]) Stats() (admitted, rejected uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.admitted, p.rejected
}
